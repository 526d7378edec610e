//! `rel` — a relational engine for ablation A6 (paper §3).
//!
//! The paper keeps "metadata about pages, links, users, and topics" in a
//! relational database (Oracle or DB2) and term statistics in a
//! lightweight keyed store. No servlet reads metadata rows, so the served
//! system keeps only the keyed store; this engine stays here so A6 can
//! measure what §3's split keeps off the term-level path. It is the slice
//! of an RDBMS that comparison needs: typed tables keyed by their first
//! column, uniqueness, a point lookup by any unique column, row counts,
//! and persistence — all layered on the same WAL-protected keyed store
//! ([`memex_store::LsmStore`]) as the term store, namespaced by key
//! prefixes.

use memex_store::StoreError;

pub mod db;
pub mod schema;
pub mod value;

pub use db::{Database, TableHandle};
pub use schema::{Column, Schema};
pub use value::{ColType, Value};

/// Result alias of the relational engine.
pub type RelResult<T> = Result<T, RelError>;

/// What the relational engine can fail with: the keyed store's errors,
/// plus its own catalog and constraint errors.
#[derive(Debug)]
pub enum RelError {
    /// The keyed store underneath failed (I/O, corruption, ...).
    Store(StoreError),
    /// Catalog-level misuse: unknown column, duplicate table, schema mismatch.
    Schema(String),
    /// A uniqueness constraint (primary key / unique column) was violated.
    Duplicate(String),
    /// The named table does not exist.
    NotFound(String),
}

impl From<StoreError> for RelError {
    fn from(e: StoreError) -> Self {
        RelError::Store(e)
    }
}

/// A corrupt catalog record or row.
fn corrupt(what: &str) -> RelError {
    RelError::Store(StoreError::Corrupt(what.into()))
}
