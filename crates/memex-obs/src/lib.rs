//! # memex-obs — zero-dependency observability
//!
//! A `std`-only metrics layer shared by every Memex subsystem:
//!
//! - [`MetricsRegistry`] — a shareable registry of named instruments.
//!   Registration takes a lock once; the handles it returns
//!   ([`Counter`], [`Gauge`], [`Histogram`]) each hold an `Arc` to an
//!   atomic slot, so the hot path is a **single relaxed atomic op**.
//! - log₂ [`HistogramSnapshot`]s with percentile readout and lossless
//!   merge — 64 fixed buckets cover the full `u64` range.
//! - Scoped span timers: `let _g = obs::span("index.invert");` records
//!   elapsed nanoseconds into a histogram when the guard drops.
//! - A bounded ring of recent annotated [`Event`]s per subsystem.
//! - [`Snapshot`] with three exporters: human text table
//!   ([`Snapshot::render_text`]), Prometheus exposition
//!   ([`Snapshot::render_prometheus`]), and JSON
//!   ([`Snapshot::render_json`]).
//!
//! Metric names follow the `subsystem.verb` convention
//! (`store.wal.appends`, `index.query.latency`); the Prometheus exporter
//! maps `.` to `_`.
//!
//! The whole layer can be disabled at construction
//! ([`MetricsRegistry::disabled`]): every handle becomes inert and the
//! remaining cost is one well-predicted branch.
//!
//! Components that belong to a particular server instance take a registry
//! via an `attach_registry`-style constructor so tests stay isolated;
//! free-standing code uses the process-wide [`global()`] registry.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

mod histogram;
mod registry;
mod snapshot;
pub mod trace;

pub use histogram::{bucket_of, bucket_upper_bound, HistogramSnapshot, NUM_BUCKETS};
pub use registry::{Counter, Gauge, Histogram, MetricsRegistry, SpanGuard};
pub use snapshot::{Event, Snapshot};
pub use trace::{SpanData, TraceConfig, TraceData, TraceId, Tracer};

use std::sync::OnceLock;

/// The process-wide registry, for code with no natural owner to hang a
/// per-instance registry on (e.g. free functions, one-shot tools).
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// Time a scope into the [`global()`] registry:
/// `let _g = memex_obs::span("index.invert");`
pub fn span(name: &str) -> SpanGuard {
    global().span(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_registry_is_shared() {
        global().counter("obs.test.global").add(3);
        let _g = span("obs.test.span");
        drop(_g);
        let snap = global().snapshot();
        assert!(snap.counter("obs.test.global") >= 3);
        assert!(snap.histogram("obs.test.span").is_some());
    }
}
