//! `rel` — the metadata RDBMS of the Memex server (paper §3).
//!
//! The paper keeps "metadata about pages, links, users, and topics" in a
//! relational database (Oracle or DB2). This module reproduces the needed
//! slice of that: typed schemas, auto-assigned row ids, secondary indexes
//! with order-preserving key encodings, predicate scans with index
//! selection, and persistence — all layered on the same WAL-protected
//! keyed store ([`LsmStore`](crate::lsm::LsmStore)) as the term store,
//! namespaced by key prefixes.

pub mod db;
pub mod predicate;
pub mod schema;
pub mod value;

pub use db::{Database, RowId, TableHandle};
pub use predicate::{CmpOp, Predicate};
pub use schema::{Column, Schema};
pub use value::{ColType, Value};
