//! # memex-web — the simulated Web and its surfers
//!
//! The original Memex was demonstrated on the live 2000 Web with volunteer
//! surfers at IIT Bombay. Neither is available, so this crate provides the
//! statistical stand-ins (DESIGN.md §2 documents the substitution):
//!
//! * [`corpus`] — a synthetic topical web: topic-conditional Zipfian
//!   language models, preferential within-topic linking, and link-rich,
//!   text-poor **front pages** (the paper: "people tend to bookmark many
//!   'front pages' with less text and more graphics compared to typical
//!   Web documents");
//! * [`surfer`] — simulated users with focused interests producing
//!   timestamped visit/bookmark event streams over months of virtual time;
//! * [`zipf`] — the seeded Zipf sampler both generators share.

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

pub mod corpus;
pub mod surfer;
pub mod zipf;

pub use corpus::{AnalyzedCorpus, Corpus, CorpusConfig, Page};
pub use surfer::{Bookmark, Community, SurferConfig};
