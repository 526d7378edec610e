//! # memex-index — full-text indexing over the lightweight store
//!
//! "Apart from a standard full-text search over all pages visited…" (§2) —
//! this crate is that search. Term-level postings live in their own
//! lightweight keyed store, a [`memex_store::LsmStore`] (the paper's
//! architectural point: term-granularity data would overwhelm an
//! RDBMS, so it gets the Berkeley-DB-style tier; ablation A6 measures
//! the gap), written by the
//! background indexer demon one segment per 512 documents (keys: `P`
//! postings, `L` doc lengths, the `Mseg` counter — all of them read back):
//!
//! * [`postings`] — delta+varint compressed posting lists;
//! * [`index`] — the segmented inverted index (buffer → segments, each
//!   read where it lies per query; a document is added once);
//! * [`search`] — BM25 ranked retrieval.

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

pub mod index;
pub mod postings;
pub mod search;

pub use index::InvertedIndex;
pub use search::SearchHit;
