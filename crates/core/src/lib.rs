//! # memex-core — the Memex system
//!
//! "We propose to demonstrate the beginnings of a 'Memex' for the Web: a
//! browsing assistant for individuals and groups with focused interests.
//! Memex blurs the artificial distinction between browsing history and
//! deliberate bookmarks."
//!
//! This crate assembles every substrate into the user-facing system:
//!
//! * [`folders`] — each user's editable folder/topic space (Fig. 1), with
//!   the per-user classifier that marks its guesses with `?` and learns
//!   from cut/paste feedback;
//! * [`memex`] — the [`Memex`] facade: event ingest, demons, and the six
//!   motivating queries of §1 (months-old URL recall, topical browsing
//!   context, what's-new discovery, ISP bill breakdown, community map,
//!   similar-surfer search);
//! * [`recommend`] — theme-weight user profiles and collaborative
//!   recommendation, with the URL-overlap baseline the paper says profiles
//!   are "far superior to";
//! * [`bookmarks_io`] — Netscape-format bookmark import/export ("Existing
//!   bookmarks from Netscape or Explorer can be imported … conversely
//!   Memex can export back");
//! * [`servlet`] — the request/response dispatch surface (the paper's
//!   HTTP-tunnelled servlet interface, sans the wire).

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

pub mod bookmarks_io;
pub mod folders;
pub mod memex;
pub mod recommend;
pub mod servlet;

pub use folders::{FolderSpace, PageAssignment};
pub use memex::{Memex, MemexOptions};
pub use servlet::{Request, Response};
