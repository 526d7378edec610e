//! The Memex serving benchmark. See `benchmark/README.md`.
//!
//! `--workload W --seed N --seconds S --trace 0|1` runs one workload: the
//! parent generates the request lists and the oracle's answers, runs
//! [`Workload::trials`] trials each in a fresh child process, reduces them, prints
//! every metric by name and ends with one JSON line. `--selfcheck` runs
//! every workload twice and fails if the two sets disagree.

mod affinity;
mod metrics;
mod replay;
mod spans;
mod stats;
mod trial;
mod workloads;
mod world;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use metrics::{per_layer, EndToEnd, END_TO_END};
use stats::{
    best, best_per_request, best_window_ns, median, percentile, quartiles, reduce, spread_pct,
    Better, Reduce,
};
use trial::{TrialArgs, TrialResult};
use workloads::{Class, Workload};
use world::World;

/// `--seconds` at which the lists have their documented sizes; equals
/// `run_seconds` in `BENCHMARK.json`.
const RUN_SECONDS: f64 = 15.0;

/// `Stats` counts fixed by the request list alone: on one connection they
/// must repeat exactly from trial to trial.
const REQUEST_DETERMINED: [&str; 5] = [
    "net.read.cache.hit",
    "net.read.cache.miss",
    "server.fetch.pages",
    "server.index.docs",
    "index.commits",
];

/// Slices a closed loop's window is cut into for `throughput_rps`: 50 to
/// 65 ms each at the documented list sizes.
const WINDOW_SLICES: usize = 20;

/// End-to-end metrics whose typical trial is reported next to the reduced
/// value (`bench.trial_median.*`): a tail that strikes requests at random
/// drops out of each request's best, and shows here.
const TRIAL_MEDIANS: [&str; 2] = ["latency_p50_us", "latency_p95_us"];

/// Per-layer metrics read straight from a `Stats` counter delta.
const COUNTER_METRICS: [(&str, &str); 9] = [
    ("net.cache.stale_purged", "net.read.cache.stale_purged"),
    ("net.shed", "net.shed"),
    ("server.fetch.pages", "server.fetch.pages"),
    ("server.index.docs", "server.index.docs"),
    ("index.commits", "index.commits"),
    ("index.postings_flushed", "index.postings_flushed"),
    ("store.kv.puts", "store.kv.puts"),
    ("store.kv.gets", "store.kv.gets"),
    ("store.wal.appends", "store.wal.appends"),
];

fn output_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("target/benchmark")
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    selfcheck: bool,
    /// Internal: this process is a trial reading this plan file.
    trial_plan: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        selfcheck: false,
        trial_plan: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--selfcheck" => args.selfcheck = true,
            "--trial" => args.trial_plan = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

const USAGE: &str = "usage: benchmark --workload <ingest|query_cold|query_hot|browse_mix> \
[--seed N] [--seconds S] [--trace 0|1]\n       benchmark --selfcheck [--seed N] [--seconds S]";

fn main() -> ExitCode {
    let process_start = Instant::now();
    let outcome = parse_args().and_then(|args| {
        if let Some(plan) = &args.trial_plan {
            let workload = args.workload.ok_or("--trial needs --workload")?;
            // Consecutive trials get consecutive pids, so they take turns
            // on the CPUs this process may use.
            affinity::pin_to_one_cpu(std::process::id() as usize);
            let dir = output_dir();
            let result = trial::run(
                &TrialArgs {
                    workload,
                    plan,
                    trace_dir: args.trace.then_some(dir.as_path()),
                },
                process_start,
            )?;
            result.print();
            Ok(true)
        } else if args.selfcheck {
            selfcheck(args.seed, args.seconds)
        } else {
            let workload = args.workload.ok_or(USAGE)?;
            let report = run_workload(workload, args.seed, args.seconds, args.trace)?;
            report.print_tables(args.trace);
            println!("{}", report.json_line(args.trace));
            Ok(true)
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

/// One workload's reduced result.
struct Report {
    workload: Workload,
    trials: Vec<TrialResult>,
    /// The traced run, with `--trace 1`.
    traced: Option<TrialResult>,
    /// Counter deltas that differ between trials.
    unstable: Vec<String>,
    /// Unstable counts that the request list should have fixed.
    broken: Vec<String>,
}

/// How per-trial values other than client-side latencies and closed-loop
/// throughput are reduced (for those see [`Report::best_latencies`] and
/// [`Report::throughput_rps`]). Set-up and closed-loop timings take the
/// best trial: hash seeds, neighbours and the host's slow moments only
/// ever add time (over ten runs the median trial's set-up spread 19–37%,
/// the best trial's 5–11%). Peak memory takes the median, and so does
/// every other number of the open-loop workload, whose window is set by
/// its schedule.
fn reduction(workload: Workload, metric: &str) -> Reduce {
    if metric == "setup_s" {
        Reduce::Best
    } else if metric == "peak_rss_mb" || !workload.single_connection() {
        Reduce::Median
    } else {
        Reduce::Best
    }
}

impl Report {
    fn per_trial(&self, name: &str) -> Vec<f64> {
        self.trials.iter().map(|t| t.value(name)).collect()
    }

    /// Ascending latencies (ns) of one class, or of the whole list: each
    /// measured request's best over the trials. The list is fixed, so entry
    /// `i` is the same request in every trial, and the host only ever adds
    /// time to it; it flips between a fast and a slow state several times
    /// a second, so a whole trial is rarely all fast, but every request
    /// meets the fast state in one trial or another. Percentiles over this
    /// list repeat within 2–5% from run to run where the median or the
    /// best of whole trials moved by 10–20% (README, "Noise"). Where two
    /// connections race, a request's second best is taken instead: a trial
    /// whose write came late lets reads that wait behind it in every other
    /// trial slip ahead (2.9 ms among fifteen values of 30–33 ms, about
    /// once in five runs), and one such escape moved p95 by 13%.
    fn best_latencies(&self, class: Option<Class>) -> Vec<u64> {
        let of_class = |t: &TrialResult| -> Vec<u64> {
            let wanted = t
                .requests
                .iter()
                .filter(|r| class.is_none_or(|k| r.class == k));
            wanted.map(|r| r.latency_ns).collect()
        };
        let skip = usize::from(!self.workload.single_connection());
        best_per_request(&self.trials.iter().map(of_class).collect::<Vec<_>>(), skip)
    }

    /// Percentile `q` of [`Report::best_latencies`], in µs.
    fn latency_us(&self, class: Option<Class>, q: f64) -> f64 {
        percentile(&self.best_latencies(class), q) as f64 / 1e3
    }

    /// Correct responses ÷ measured window. A closed loop's window is put
    /// together from each slice's best trial ([`best_window_ns`]): a trial
    /// lasts a second and the host rarely stays fast that long. The open
    /// loop's window is its schedule; there the median trial is reported.
    fn throughput_rps(&self) -> f64 {
        if !self.workload.single_connection() {
            return median(&self.per_trial("throughput_rps"));
        }
        let sent: Vec<Vec<u64>> = self
            .trials
            .iter()
            .map(|t| t.requests.iter().map(|r| r.sent_ns).collect())
            .collect();
        let end: Vec<u64> = self
            .per_trial("window_ns")
            .iter()
            .map(|&w| w as u64)
            .collect();
        let window_s = best_window_ns(&sent, &end, WINDOW_SLICES) as f64 / 1e9;
        best(&self.per_trial("correct_in_window"), Better::Lower) / window_s
    }

    fn end_to_end(&self, e: &EndToEnd) -> f64 {
        match e.name {
            "throughput_rps" => self.throughput_rps(),
            "latency_p50_us" => self.latency_us(self.workload.headline(), 0.5),
            "latency_p95_us" => self.latency_us(self.workload.headline(), 0.95),
            _ => reduce(
                &self.per_trial(e.name),
                reduction(self.workload, e.name),
                e.better,
            ),
        }
    }

    fn attempted(&self) -> u64 {
        self.per_trial("attempted").iter().sum::<f64>() as u64
    }

    fn failed(&self) -> u64 {
        let traced = self.traced.as_ref().map_or(0.0, |t| t.value("failed"));
        (self.per_trial("failed").iter().sum::<f64>() + traced) as u64
    }

    fn correct(&self) -> bool {
        self.failed() == 0 && self.broken.is_empty()
    }

    /// Every per-layer metric: the untraced trials reduced as the
    /// end-to-end metrics are, counts from the first trial, spans from the
    /// traced run.
    fn per_layer_values(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        let first_counts = &self.trials[0].counts;
        for m in per_layer() {
            let name = m.name.as_str();
            let counter = COUNTER_METRICS.iter().find(|(metric, _)| *metric == name);
            let value = if let Some((_, counter)) = counter {
                first_counts.get(*counter).copied().unwrap_or(0) as f64
            } else if name == "bench.trace_overhead_pct" {
                let untraced = median(&self.per_trial("throughput_rps"));
                match self.traced.as_ref().map(|t| t.value("throughput_rps")) {
                    Some(traced) if traced > 0.0 => (untraced / traced - 1.0) * 100.0,
                    _ => 0.0,
                }
            } else if self.trials[0].values.contains_key(name) {
                reduce(
                    &self.per_trial(name),
                    reduction(self.workload, name),
                    m.better,
                )
            } else {
                self.traced.as_ref().map_or(0.0, |t| t.value(name))
            };
            out.insert(m.name, value);
        }
        for class in Class::ALL {
            for (p, q) in [("p50", 0.5), ("p99", 0.99)] {
                let name = format!("net.rtt.{}.{p}_us", class.name());
                out.insert(name, self.latency_us(Some(class), q));
            }
        }
        for e in &END_TO_END {
            out.insert(
                format!("bench.trial_spread_pct.{}", e.name),
                spread_pct(&self.per_trial(e.name), e.better),
            );
        }
        for name in TRIAL_MEDIANS {
            out.insert(
                format!("bench.trial_median.{name}"),
                median(&self.per_trial(name)),
            );
        }
        out
    }

    fn print_tables(&self, with_layers: bool) {
        let w = self.workload.name();
        println!(
            "== {w}: {} trials in fresh processes, {} requests each (probe included) ==",
            self.trials.len(),
            self.trials[0].value("attempted")
        );
        println!(
            "{:<18}{:>14}  {:<5}{:<8}{:>12}{:>12}{:>12}  per trial",
            "end-to-end", "value", "unit", "reduce", "q1", "median", "q3"
        );
        for e in &END_TO_END {
            let values = self.per_trial(e.name);
            let [q1, q2, q3] = quartiles(&values);
            let how = if e.name.starts_with("latency_") {
                "request"
            } else if e.name == "throughput_rps" && self.workload.single_connection() {
                "slice"
            } else {
                match reduction(self.workload, e.name) {
                    Reduce::Best => "best",
                    Reduce::Median => "median",
                }
            };
            let listed: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
            println!(
                "{:<18}{:>14.4}  {:<5}{:<8}{q1:>12.4}{q2:>12.4}{q3:>12.4}  {}",
                e.name,
                self.end_to_end(e),
                e.unit,
                how,
                listed.join(" ")
            );
        }
        println!(
            "reduce: best, median = that trial's value; request = percentile over the list of \
             each request's best latency across the trials; slice = requests / sum of each \
             slice's best time across the trials, {WINDOW_SLICES} slices (per trial: each trial's own value)"
        );
        let headline = self.workload.headline();
        let n = self.best_latencies(headline).len();
        println!(
            "latency class: {}, {n} requests in the list ({} beyond p95)",
            headline.map_or("all requests", Class::name),
            stats::samples_beyond(n, 0.95)
        );
        for class in Class::ALL {
            let n = self.best_latencies(Some(class)).len();
            if let Some(q) = stats::highest_supported_percentile(n) {
                println!(
                    "  {:<16}{n:>7} requests support up to p{}",
                    class.name(),
                    q * 100.0
                );
            } else if n > 0 {
                println!(
                    "  {:<16}{n:>7} requests: too few for any percentile",
                    class.name()
                );
            }
        }
        println!(
            "attempted {} failed {} correct {}",
            self.attempted(),
            self.failed(),
            self.correct()
        );
        for name in &self.broken {
            println!("REQUEST-DETERMINED COUNT DIFFERS BETWEEN TRIALS: {name}");
        }
        if !self.unstable.is_empty() {
            println!(
                "counts that differ between trials: {}",
                self.unstable.join(" ")
            );
        }
        if with_layers {
            println!("{:<44}{:>16}  {:<6}better", "per-layer", "value", "unit");
            let values = self.per_layer_values();
            for m in per_layer() {
                println!(
                    "{:<44}{:>16.4}  {:<6}{}",
                    m.name,
                    values[&m.name],
                    m.unit,
                    m.better.name()
                );
            }
            let dir = output_dir();
            println!(
                "trace: {}  layer table: {}",
                dir.join(format!("trace-{w}.json")).display(),
                dir.join(format!("layers-{w}.txt")).display()
            );
        }
    }

    /// The contract's last line: end-to-end metrics untraced, per-layer
    /// metrics traced.
    fn json_line(&self, with_layers: bool) -> String {
        let metrics: Vec<String> = if with_layers {
            let values = self.per_layer_values();
            per_layer()
                .iter()
                .map(|m| json_metric(&m.name, values[&m.name], m.unit))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|e| json_metric(e.name, self.end_to_end(e), e.unit))
                .collect()
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted(),
            self.failed(),
            metrics.join(", ")
        )
    }
}

fn json_metric(name: &str, value: f64, unit: &str) -> String {
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

/// Spawn this executable as one trial and parse what it prints.
fn spawn_trial(workload: Workload, plan: &Path, trace: bool) -> Result<TrialResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--trial", &plan.to_string_lossy()])
        .args(["--workload", workload.name()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning a trial: {e}"))?;
    if !output.status.success() {
        return Err(format!("trial exited with {}", output.status));
    }
    TrialResult::parse(&String::from_utf8_lossy(&output.stdout))
}

fn run_workload(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Report, String> {
    let dir = output_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let plan_path = dir.join(format!(
        "plan-{}-{}.bin",
        workload.name(),
        std::process::id()
    ));
    {
        // Scoped: the oracle's Memex is gone before any trial runs.
        let world = World::generate();
        let plan = workloads::prepare(workload, &world, seed, seconds / RUN_SECONDS);
        plan.save(&plan_path)
            .map_err(|e| format!("{}: {e}", plan_path.display()))?;
    }
    let run = || -> Result<(Vec<TrialResult>, Option<TrialResult>), String> {
        let mut trials = Vec::new();
        for _ in 0..workload.trials() {
            trials.push(spawn_trial(workload, &plan_path, false)?);
        }
        let traced = match trace {
            true => Some(spawn_trial(workload, &plan_path, true)?),
            false => None,
        };
        Ok((trials, traced))
    };
    let ran = run();
    let _ = std::fs::remove_file(&plan_path);
    let (trials, traced) = ran?;

    let listed = trials[0].requests.len();
    if trials.iter().any(|t| t.requests.len() != listed) {
        return Err("trials measured lists of different lengths".into());
    }

    let mut unstable = Vec::new();
    let names: std::collections::BTreeSet<&String> =
        trials.iter().flat_map(|t| t.counts.keys()).collect();
    for name in names {
        let first = trials[0].counts.get(name);
        if trials.iter().any(|t| t.counts.get(name) != first) {
            unstable.push(name.clone());
        }
    }
    let broken = unstable
        .iter()
        .filter(|n| workload.single_connection() && REQUEST_DETERMINED.contains(&n.as_str()))
        .cloned()
        .collect();
    Ok(Report {
        workload,
        trials,
        traced,
        unstable,
        broken,
    })
}

/// Run every workload twice as two independent sets; fail when an
/// end-to-end metric differs between them by more than its bound, when a
/// request-determined count differs between trials, or on any failure.
fn selfcheck(seed: u64, seconds: f64) -> Result<bool, String> {
    let mut ok = true;
    println!(
        "{:<12}{:<18}{:>14}{:>14}{:>9}{:>8}  verdict",
        "workload", "metric", "set A", "set B", "diff", "bound"
    );
    for workload in Workload::ALL {
        let a = run_workload(workload, seed, seconds, false)?;
        let b = run_workload(workload, seed, seconds, false)?;
        for e in &END_TO_END {
            let (va, vb) = (a.end_to_end(e), b.end_to_end(e));
            let diff = (va - vb).abs() / va.min(vb);
            let within = diff <= e.bound;
            ok &= within;
            println!(
                "{:<12}{:<18}{va:>14.4}{vb:>14.4}{:>8.1}%{:>7.0}%  {}",
                workload.name(),
                e.name,
                diff * 100.0,
                e.bound * 100.0,
                if within { "ok" } else { "DISAGREE" }
            );
        }
        for (set, report) in [("A", &a), ("B", &b)] {
            if !report.correct() {
                ok = false;
                println!(
                    "{:<12}set {set}: failed {} of {}; request-determined counts that differ: {:?}",
                    workload.name(),
                    report.failed(),
                    report.attempted(),
                    report.broken
                );
            }
            if !report.unstable.is_empty() {
                println!(
                    "{:<12}set {set}: counts that differ between trials: {}",
                    workload.name(),
                    report.unstable.join(" ")
                );
            }
        }
    }
    println!("selfcheck: {}", if ok { "PASS" } else { "FAIL" });
    Ok(ok)
}
