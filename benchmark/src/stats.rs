//! Arithmetic shared by trials and the parent: percentiles, the rule for
//! which percentile a sample supports, the across-trial reducer, the
//! open-loop schedule and `Request::Stats` deltas.

use std::collections::BTreeMap;

use memex_obs::Snapshot;

/// 1-based nearest rank of quantile `q` among `n ≥ 1` samples. The
/// epsilon keeps products like 0.95 × 200 from rounding up a rank.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice (0 for an empty one).
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[rank(sorted.len(), q) - 1]
}

/// Samples strictly beyond the nearest-rank position of quantile `q`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

const LADDER: [f64; 5] = [0.5, 0.9, 0.95, 0.99, 0.999];
/// A tail percentile is reported only with this many samples beyond it.
pub const MIN_BEYOND: usize = 10;

/// The highest percentile of the ladder that keeps at least
/// [`MIN_BEYOND`] samples beyond it, if any does.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    LADDER
        .into_iter()
        .rev()
        .find(|&q| samples_beyond(n, q) >= MIN_BEYOND)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// As `BENCHMARK.json` spells it.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How per-trial values become the reported one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reduce {
    /// Closed-loop timings: hash-seed and neighbour noise only add time.
    Best,
    /// Values where the best trial is a lucky one, not the quiet one.
    Median,
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub fn best(values: &[f64], better: Better) -> f64 {
    let pick = match better {
        Better::Lower => f64::min,
        Better::Higher => f64::max,
    };
    values.iter().copied().reduce(pick).unwrap_or(0.0)
}

pub fn reduce(values: &[f64], how: Reduce, better: Better) -> f64 {
    match how {
        Reduce::Best => best(values, better),
        Reduce::Median => median(values),
    }
}

/// Each request's best latency over the trials, ascending. `trials[t][i]`
/// is request `i` of the fixed list in trial `t`: the same request every
/// time, so whatever one trial adds to it — a slow moment of the host, a
/// preemption, an unlucky hash seed — another trial leaves out. `skip`
/// passes over that many of a request's lowest values first (1 = its
/// second best), for lists on which a disturbed trial can also make a
/// request faster.
pub fn best_per_request(trials: &[Vec<u64>], skip: usize) -> Vec<u64> {
    let n = trials.first().map_or(0, Vec::len);
    let mut best: Vec<u64> = (0..n)
        .map(|i| {
            let mut across: Vec<u64> = trials.iter().map(|t| t[i]).collect();
            let rank = skip.min(across.len() - 1);
            *across.select_nth_unstable(rank).1
        })
        .collect();
    best.sort_unstable();
    best
}

/// A closed loop's window with the host's slow moments taken out. The list
/// is cut into `slices` runs of consecutive requests; each slice takes its
/// shortest time over the trials, and the window is their sum. `sent[t][i]`
/// is when trial `t` sent request `i` and `end[t]` when its last answer
/// arrived, so a slice runs from its first request's send to the next
/// slice's and everything between two sends counts. One slice is the best
/// trial's window. Slices stay tens of milliseconds long on purpose: work
/// the program does beside the requests still lands in every slice.
pub fn best_window_ns(sent: &[Vec<u64>], end: &[u64], slices: usize) -> u64 {
    let n = sent.first().map_or(0, Vec::len);
    let slices = slices.clamp(1, n.max(1));
    let edge = |t: usize, k: usize| match k * n / slices {
        i if i < n => sent[t][i],
        _ => end[t],
    };
    (0..slices)
        .map(|k| {
            let times = (0..sent.len()).map(|t| edge(t, k + 1).saturating_sub(edge(t, k)));
            times.min().unwrap_or(0)
        })
        .sum()
}

/// (worst − best) ÷ best across trials, in percent.
pub fn spread_pct(values: &[f64], better: Better) -> f64 {
    let worse = match better {
        Better::Lower => Better::Higher,
        Better::Higher => Better::Lower,
    };
    let (b, w) = (best(values, better), best(values, worse));
    if b == 0.0 {
        0.0
    } else {
        (w - b).abs() / b * 100.0
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the driver's acceptance rule is written in those terms).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return [only; 3];
    }
    [1usize, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// One open-loop request on the generator's clock (ns since its start).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Paced {
    pub due: u64,
    pub sent: u64,
    pub done: u64,
}

impl Paced {
    /// Counted from when the request was due, so a stall's queueing delay
    /// lands on the requests that waited behind it.
    pub fn latency(&self) -> u64 {
        self.done - self.due
    }

    /// How late the generator sent it (blocked on its own previous
    /// response, or overslept).
    pub fn lateness(&self) -> u64 {
        self.sent - self.due
    }
}

/// Run one request per entry of `due` (ascending ns on the generator's
/// clock). `now` reads the clock, `sleep_until` waits for a due time still
/// ahead, `exchange` sends request `i` and blocks for its answer. A
/// request whose due time has passed goes out immediately.
pub fn run_open_loop(
    due: &[u64],
    mut now: impl FnMut() -> u64,
    mut sleep_until: impl FnMut(u64),
    mut exchange: impl FnMut(usize),
) -> Vec<Paced> {
    due.iter()
        .enumerate()
        .map(|(i, &due)| {
            if now() < due {
                sleep_until(due);
            }
            let sent = now().max(due);
            exchange(i);
            Paced {
                due,
                sent,
                done: now().max(sent),
            }
        })
        .collect()
}

/// What changed between two `Request::Stats` answers.
#[derive(Debug, Default)]
pub struct StatsDelta {
    pub counters: BTreeMap<String, u64>,
    /// name → (Δcount, Δsum in ns).
    pub histograms: BTreeMap<String, (u64, u64)>,
}

impl StatsDelta {
    pub fn between(before: &Snapshot, after: &Snapshot) -> StatsDelta {
        let mut delta = StatsDelta::default();
        for (name, v) in &after.counters {
            let d = v.saturating_sub(before.counter(name));
            if d > 0 {
                delta.counters.insert(name.clone(), d);
            }
        }
        for (name, h) in &after.histograms {
            let (c0, s0) = before.histogram(name).map_or((0, 0), |b| (b.count, b.sum));
            let count = h.count.saturating_sub(c0);
            if count > 0 {
                delta
                    .histograms
                    .insert(name.clone(), (count, h.sum.saturating_sub(s0)));
            }
        }
        delta
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Δsum ÷ Δcount of a nanosecond histogram, in µs (0 when unused).
    pub fn mean_us(&self, name: &str) -> f64 {
        match self.histograms.get(name) {
            Some(&(count, sum)) => sum as f64 / count as f64 / 1e3,
            None => 0.0,
        }
    }

    /// Δsum of a nanosecond histogram, in ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.histograms
            .get(name)
            .map_or(0.0, |&(_, sum)| sum as f64 / 1e6)
    }

    /// `a ÷ (a + b)` over two counters (0 when neither moved).
    pub fn share(&self, a: &str, b: &str) -> f64 {
        let (a, b) = (self.counter(a), self.counter(b));
        if a + b == 0 {
            0.0
        } else {
            a as f64 / (a + b) as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memex_obs::MetricsRegistry;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.95), 95);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // 200 samples: p95 sits at rank 190, ten beyond; p99 has only two.
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert_eq!(highest_supported_percentile(200), Some(0.95));
        assert_eq!(highest_supported_percentile(199), Some(0.9));
        assert_eq!(highest_supported_percentile(1000), Some(0.99));
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
        // The old attempt's "p99 from ~4 samples" is refused outright.
        assert_eq!(highest_supported_percentile(400), Some(0.95));
        assert_eq!(highest_supported_percentile(20), Some(0.5));
        assert_eq!(highest_supported_percentile(19), None);
    }

    #[test]
    fn best_follows_direction_and_median_ignores_it() {
        let v = [5.0, 3.0, 9.0, 4.0, 7.0];
        assert_eq!(reduce(&v, Reduce::Best, Better::Lower), 3.0);
        assert_eq!(reduce(&v, Reduce::Best, Better::Higher), 9.0);
        assert_eq!(reduce(&v, Reduce::Median, Better::Lower), 5.0);
        assert_eq!(reduce(&v, Reduce::Median, Better::Higher), 5.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
        assert_eq!(spread_pct(&v, Better::Lower), 200.0);
        assert_eq!(spread_pct(&[8.0, 10.0], Better::Higher), 20.0);
    }

    #[test]
    fn latency_is_each_requests_best_over_the_trials() {
        // Three trials of a four-request list; the host was slow during a
        // different request each time, and request 3 waits behind a write
        // in every trial.
        let trials = vec![
            vec![10, 90, 12, 400],
            vec![55, 11, 12, 380],
            vec![10, 11, 70, 410],
        ];
        assert_eq!(best_per_request(&trials, 0), vec![10, 11, 12, 380]);
        assert_eq!(percentile(&best_per_request(&trials, 0), 0.5), 11);
        assert_eq!(best_per_request(&trials[..1], 0), vec![10, 12, 90, 400]);
        assert_eq!(best_per_request(&[], 0), Vec::<u64>::new());
        // In one trial the write came late and request 3 slipped ahead of
        // it: its second best is the wait every other trial saw.
        let trials = vec![vec![10, 400], vec![11, 9], vec![12, 380], vec![10, 390]];
        assert_eq!(best_per_request(&trials, 0), vec![9, 10]);
        assert_eq!(best_per_request(&trials, 1), vec![10, 380]);
        // Never past the last trial.
        assert_eq!(best_per_request(&trials[..1], 1), vec![10, 400]);
    }

    #[test]
    fn window_is_the_sum_of_each_slices_best_trial() {
        // Four requests sent back to back; trial 0 was slow during the
        // first half, trial 1 during the second.
        let sent = vec![vec![0, 30, 60, 70], vec![0, 10, 20, 50]];
        let end = vec![80, 90];
        assert_eq!(best_window_ns(&sent, &end, 1), 80);
        assert_eq!(best_window_ns(&sent, &end, 2), 20 + 20);
        assert_eq!(best_window_ns(&sent, &end, 4), 10 + 10 + 10 + 10);
        // More slices than requests: one per request.
        assert_eq!(best_window_ns(&sent, &end, 9), 40);
        assert_eq!(best_window_ns(&[], &[], 3), 0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    /// A fake clock: a 5 ms schedule whose request 1 stalls for 22 ms.
    #[test]
    fn open_loop_counts_latency_from_due_time_and_reports_lateness() {
        const MS: u64 = 1_000_000;
        let clock = std::cell::Cell::new(0u64);
        let due: Vec<u64> = (0..6).map(|i| i * 5 * MS).collect();
        let paced = run_open_loop(
            &due,
            || clock.get(),
            |due| clock.set(due),
            |i| clock.set(clock.get() + if i == 1 { 22 * MS } else { MS }),
        );
        // On time: sent when due, latency is the service time.
        assert_eq!((paced[0].lateness(), paced[0].latency()), (0, MS));
        assert_eq!((paced[1].lateness(), paced[1].latency()), (0, 22 * MS));
        // Request 2 was due at 10 ms but the sender was blocked until
        // 27 ms: 17 ms late, and its latency includes that wait.
        assert_eq!(paced[2].due, 10 * MS);
        assert_eq!(paced[2].lateness(), 17 * MS);
        assert_eq!(paced[2].latency(), 18 * MS);
        // The backlog drains one service time per request...
        assert_eq!(paced[3].lateness(), 13 * MS);
        assert_eq!(paced[5].lateness(), 5 * MS);
        // ...and a closed loop would have reported 1 ms for all of these.
        assert!(paced[2..].iter().all(|p| p.done - p.sent == MS));
    }

    #[test]
    fn stats_delta_subtracts_counters_and_histogram_sums() {
        let reg = MetricsRegistry::new();
        reg.counter("net.read.cache.hit").add(5);
        reg.counter("untouched").add(2);
        reg.histogram("net.req.latency").record(1_000);
        let before = reg.snapshot();
        reg.counter("net.read.cache.hit").add(30);
        reg.counter("net.read.cache.miss").add(10);
        reg.histogram("net.req.latency").record(3_000);
        reg.histogram("net.req.latency").record(5_000);
        reg.histogram("net.lock.wait").record(2_000_000);
        let d = StatsDelta::between(&before, &reg.snapshot());
        assert_eq!(d.counter("net.read.cache.hit"), 30);
        assert_eq!(d.counter("net.read.cache.miss"), 10);
        assert!(!d.counters.contains_key("untouched"));
        assert_eq!(d.share("net.read.cache.hit", "net.read.cache.miss"), 0.75);
        assert_eq!(d.share("absent.a", "absent.b"), 0.0);
        assert_eq!(d.histograms["net.req.latency"], (2, 8_000));
        assert_eq!(d.mean_us("net.req.latency"), 4.0);
        assert_eq!(d.total_ms("net.lock.wait"), 2.0);
        assert_eq!(d.mean_us("never.recorded"), 0.0);
    }
}
