//! # memex-obs — zero-dependency observability
//!
//! A `std`-only metrics layer shared by every Memex subsystem:
//!
//! - [`MetricsRegistry`] — a shareable registry of named instruments.
//!   Registration takes a lock once; the handles it returns
//!   ([`Counter`], [`Gauge`], [`Histogram`]) each hold an `Arc` to an
//!   atomic slot, so the hot path is a **single relaxed atomic op**.
//! - log₂ [`HistogramSnapshot`]s with percentile readout — 64 fixed
//!   buckets cover the full `u64` range.
//! - Scoped timers: `let _g = histogram.start_span();` records elapsed
//!   nanoseconds into the histogram when the guard drops, and, inside a
//!   trace, is the trace span named after the histogram (less `.latency`):
//!   one clock feeds both `Request::Stats` and `Request::Traces`.
//! - A bounded ring of recent annotated [`Event`]s per subsystem.
//! - [`Snapshot`], what `Request::Stats` ships, with one exporter: a
//!   human text table ([`Snapshot::render_text`]).
//! - [`trace`] — per-request span trees, a flight recorder and a slow log.
//!
//! Metric names follow the `subsystem.verb` convention
//! (`store.wal.appends`, `index.query.latency`).
//!
//! A handle's `Default` is inert: a component never given a registry
//! holds those, and each operation is one well-predicted branch.
//!
//! There is no process-wide registry: every component that reports takes
//! the registry of the server instance it belongs to through an
//! `attach_registry`-style call, so a served `Request::Stats` answer
//! depends on that instance alone and tests stay isolated.

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

pub use histogram::{bucket_of, HistogramSnapshot, NUM_BUCKETS};
pub use registry::{Counter, Gauge, Histogram, MetricsRegistry};
pub use snapshot::{Event, Snapshot};
pub use trace::{SpanData, SpanGuard, TraceConfig, TraceData, TraceId, Tracer};
