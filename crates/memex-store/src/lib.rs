//! # memex-store — storage substrate for Memex
//!
//! The Memex paper (§3) manages server state in two *tiers*: a relational
//! database (Oracle/DB2 in the paper) for **metadata** about pages, links,
//! users and topics, and a lightweight Berkeley DB storage manager for
//! **fine-grained term-level data**. Both tiers are reproduced here over
//! one keyed store:
//!
//! * [`lsm`] — the keyed store: a WAL-backed memtable sealed into
//!   immutable, checksummed, bloom-filtered sorted runs, tiered
//!   compaction, crash recovery and MVCC snapshots. The inverted index
//!   (`memex-index`) keeps its term-level data directly in one
//!   [`LsmStore`].
//! * [`rel`] — the metadata tier: a compact typed relational engine
//!   (schemas, primary and secondary indexes, predicate scans) laid out
//!   as key prefixes inside its own [`LsmStore`].
//!
//! The paper further describes "a loosely-consistent versioning system on
//! top of the RDBMS, with a single producer (crawler) and several consumers
//! (indexer and statistical analyzers)"; that is [`version`]'s event log
//! with one named cursor per consumer.
//!
//! All byte-level encoding used across the store lives in [`codec`].
//!
//! Every byte the store persists flows through the [`vfs`] layer — named
//! `Storage` files opened through a `StorageDir`, whose crash-modelling
//! `MemDir` and fault-injecting `FaultyDir` make I/O failure a
//! deterministic, seeded, first-class test input (see `tests/fault.rs`).

pub mod codec;
pub mod error;
pub mod lsm;
pub mod rel;
pub mod version;
pub mod vfs;
pub mod wal;

pub use error::{StoreError, StoreResult};
pub use lsm::{LsmOptions, LsmSnapshot, LsmStore};
pub use version::{Epoch, EventLog};
pub use vfs::{FaultConfig, FaultControl, FaultyDir, FileDir, MemDir, Storage, StorageDir};
