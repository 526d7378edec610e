//! Facade crate re-exporting the entire Memex workspace.

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

pub use memex_cluster as cluster;
pub use memex_core as core;
pub use memex_graph as graph;
pub use memex_index as index;
pub use memex_learn as learn;
pub use memex_net as net;
pub use memex_obs as obs;
pub use memex_server as server;
pub use memex_store as store;
pub use memex_text as text;
pub use memex_web as web;
