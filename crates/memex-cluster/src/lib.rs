//! # memex-cluster — clustering and theme discovery
//!
//! The paper's §4 unsupervised stack:
//!
//! * [`hac`] — bottom-up hierarchical agglomerative clustering with exact
//!   group-average cosine linkage ("for clustering we started with a
//!   bottom-up hierarchical agglomerative approach", ref \[6\]);
//! * [`kmeans`] — spherical k-means, the workhorse refinement step;
//! * [`nearest`] — nearest-centroid assignment through an inverted list of
//!   the centroids, shared by k-means and leaf-theme routing;
//! * [`scatter`] — Scatter/Gather with Buckshot and Fractionation seeding
//!   (Cutting, Karger & Pedersen's "constant interaction-time" browsing,
//!   ref \[6\]) — the T3 experiment contrasts its near-linear cost against
//!   full HAC's quadratic cost;
//! * [`themes`] — the paper's *new* theme-discovery formulation (Fig. 4):
//!   consolidate all users' folders into a community topic taxonomy,
//!   "refining topics where needed and coarsening where possible", driven
//!   by an MDL-style description cost.

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

pub mod hac;
pub mod kmeans;
pub mod nearest;
pub mod scatter;
pub mod themes;

pub use hac::{Dendrogram, Hac};
pub use kmeans::{KMeans, KMeansResult};
pub use scatter::{buckshot, fractionation, ScatterGather};
pub use themes::{ThemeDiscovery, ThemeOptions, Themes, UserFolder};
