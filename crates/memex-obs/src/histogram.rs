//! Fixed-bucket log₂ histograms.
//!
//! Values (typically latencies in nanoseconds) land in bucket
//! `floor(log2(v)) + 1` (bucket 0 holds exact zeros), so 64 buckets cover
//! the whole `u64` range with ≤ 2× relative error on percentile readouts —
//! plenty for operational latency work, and recording is two relaxed
//! atomic increments plus one add.

use std::sync::atomic::{AtomicU64, Ordering};

pub const NUM_BUCKETS: usize = 64;

/// Index of the bucket holding `value`.
#[inline]
pub fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((64 - value.leading_zeros()) as usize).min(NUM_BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `idx`.
fn bucket_upper_bound(idx: usize) -> u64 {
    if idx >= NUM_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << idx) - 1
    }
}

/// Shared histogram storage (lives in the registry; handles are cheap).
#[derive(Debug)]
pub(crate) struct HistogramCore {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> Self {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl HistogramCore {
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; NUM_BUCKETS];
        for (out, b) in buckets.iter_mut().zip(&self.buckets) {
            *out = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a histogram, with percentile readout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub buckets: [u64; NUM_BUCKETS],
    pub count: u64,
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; NUM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Value at quantile `q` (clamped to `[0, 1]`), reported as the upper
    /// bound of the bucket containing that rank. Monotone in `q`.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper_bound(idx);
            }
        }
        bucket_upper_bound(NUM_BUCKETS - 1)
    }

    /// Mean of recorded values (exact, from the running sum).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), NUM_BUCKETS - 1);
        assert_eq!(bucket_upper_bound(bucket_of(1000)), 1023);
    }

    #[test]
    fn percentiles_bracket_the_data() {
        let core = HistogramCore::default();
        for v in 1..=1000u64 {
            core.record(v);
        }
        let snap = core.snapshot();
        assert_eq!(snap.count, 1000);
        let p50 = snap.percentile(0.5);
        // True median is 500; the log2 readout may overshoot by < 2x.
        assert!((500..=1023).contains(&p50), "p50 {p50}");
        assert!(snap.percentile(1.0) >= 1000);
        assert!((snap.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_quiet() {
        let snap = HistogramSnapshot::default();
        assert_eq!(snap.percentile(0.99), 0);
        assert_eq!(snap.mean(), 0.0);
    }
}
