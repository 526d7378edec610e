//! # memex-text — text analysis substrate
//!
//! Everything between raw page bytes and term statistics: a streaming
//! HTML-aware tokenizer ([`Tokens`](tokenize::Tokens)), the classic Porter
//! stemmer ([`stem`], in place on the token just read), a stopword list, an
//! interning [`Vocabulary`] with document frequencies, sparse TF-IDF
//! [`SparseVec`] algebra, and the feature-selection statistics (Fisher
//! discriminant, χ², mutual information) that the paper's TAPER-style
//! classifier (ref \[3\]) uses to prune vocabulary before training.

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

pub mod analyze;
pub mod features;
pub mod snippet;
pub mod stem;
pub mod stopwords;
pub mod tokenize;
pub mod vector;
pub mod vocab;

pub use analyze::{Analyzer, TermCounts};
pub use vector::SparseVec;
pub use vocab::{IdfTable, TermId, Vocabulary};
