//! # memex-store — storage substrate for Memex
//!
//! The Memex paper (§3) manages server state in two *tiers*: a relational
//! database (Oracle/DB2 in the paper) for **metadata** about pages, links,
//! users and topics, and a lightweight Berkeley DB storage manager for
//! **fine-grained term-level data**. No request here reads a metadata row
//! (users, page sizes and links live in memory where they are read), so
//! the served system keeps the second tier only:
//!
//! * [`lsm`] — the keyed store: a WAL-backed memtable sealed into
//!   immutable, checksummed, bloom-filtered sorted runs, tiered
//!   compaction and crash recovery. Its read API is what the index reads:
//!   a point `get` and an ordered range walk (`for_each_range`). The
//!   inverted index (`memex-index`) keeps its term-level data directly in
//!   one [`LsmStore`], the served system's only store. (A relational
//!   engine over an `LsmStore` lives in `memex-bench`, where ablation A6
//!   measures it against the keyed store.)
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

pub mod codec;
pub mod error;
pub mod lsm;
pub mod version;
pub mod vfs;
pub mod wal;

pub use error::{StoreError, StoreResult};
pub use lsm::{LsmOptions, LsmStore};
pub use version::{Epoch, EventLog};
pub use vfs::{FaultConfig, FaultControl, FaultyDir, FileDir, MemDir, Storage, StorageDir};
