//! # memex-graph — hypertext and trail graphs
//!
//! The Memex server keeps two graph-shaped structures:
//!
//! * the **web graph** of pages and hyperlinks ([`graph::WebGraph`]), over
//!   which the resource-discovery demon runs link analysis ([`hits`]) and
//!   bounded neighbourhood expansion ([`neighborhood`]);
//! * the **trail graph** of timestamped page visits ([`trail`]), the raw
//!   material of the paper's trail tab (Fig. 2): "selecting a folder
//!   replays the hypertext graph of recent pages publicly surfed by the
//!   community which are most likely to belong to the selected topic".

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

pub mod graph;
pub mod hits;
pub mod neighborhood;
pub mod trail;

pub use graph::{NodeId, WebGraph};
pub use trail::{TrailGraph, Visit};
