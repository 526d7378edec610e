//! # memex-net — the wire
//!
//! The paper's Memex server is a network service: "servlets that perform
//! various archiving and mining functions as triggered by client action",
//! tunnelled over HTTP (§3). This crate puts our reproduction's servlet
//! vocabulary (`memex_core::servlet::{Request, Response}`) on a real
//! socket, `std`-only:
//!
//! - [`wire`] — length-prefixed, checksummed, versioned binary framing
//!   around one declared field list per request/response type, which
//!   drives both encode and decode. Typed errors, a hard frame cap, no
//!   panics on hostile bytes.
//! - [`Service`] — the serving core, with no I/O of its own: one frame in,
//!   one answer frame written out. It holds the served `Memex` behind an
//!   `RwLock`, the epoch-keyed read cache, the `net.*` metrics, tracing,
//!   and semaphore-style admission control that sheds load with explicit
//!   [`memex_core::servlet::Response::Overloaded`] frames. TCP, tests and
//!   seeded single-thread schedules all drive this one `handle`.
//! - [`NetServer`] — the TCP transport around a `Service`: an accept
//!   thread, a fixed worker pool over a bounded accept queue, per-connection
//!   timeouts and graceful shutdown.
//! - [`MemexClient`] — a blocking client with connect/request timeouts and
//!   transparent reconnect-on-broken-pipe.
//!
//! Serving metrics (`net.conn.*`, `net.req.latency`, `net.shed`,
//! `net.decode.errors`) flow through the Memex's `memex-obs` registry, so
//! `Request::Stats` over the wire reports on the wire itself.
//!
//! End-to-end request tracing rides the frame envelope: the client stamps
//! a 64-bit trace id ([`TraceContext`]), the server builds a span tree per
//! request (decode → lock wait → dispatch → encode, with index/store
//! children) into its flight recorder, and `Request::Traces` pulls the
//! trees back over the wire.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing
    )
)]

pub mod client;
pub mod server;
pub mod wire;

pub use client::{ClientConfig, MemexClient, NetError};
pub use server::{NetServer, NetServerConfig, Service};
pub use wire::{FrameKind, TraceContext, WireError, MAX_PAYLOAD, WIRE_VERSION};
