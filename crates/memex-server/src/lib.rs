//! # memex-server — the server substrate (paper §3, Fig. 3)
//!
//! "The server consists of servlets that perform various archiving and
//! mining functions as triggered by client action, or continually as
//! demons. … There are some user interface-related events that must be
//! guaranteed immediate processing. … With many users concurrently using
//! Memex, the server cannot analyze all visited pages, or update mined
//! results, in real time."
//!
//! * [`events`] — the client event vocabulary and the three privacy modes
//!   (don't archive / private / community, Fig. 1);
//! * [`fetcher`] — the page-fetch demon's source abstraction (the live Web
//!   in the paper; the simulated corpus here);
//! * [`pipeline`] — [`pipeline::MemexServer`]: immediate ingest onto the
//!   event log and the demons that consume it (fetch→index, trail). The
//!   index is the server's one store. The demons run synchronously: every
//!   write ack drains the log.

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

pub mod events;
pub mod fetcher;
pub mod pipeline;

pub use events::{ArchiveMode, ClientEvent, VisitEvent};
pub use fetcher::{
    CorpusFetcher, FetchError, FlakyConfig, FlakyFetcher, PageContent, PageFetcher, RetryPolicy,
};
pub use pipeline::{MemexServer, ServerOptions, ServerStats};
