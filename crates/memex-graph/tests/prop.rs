//! Property tests for the graph substrate: HITS normalisation, BFS
//! distance validity, and trail-replay filtering laws on random graphs and
//! event streams.

use proptest::prelude::*;

use memex_graph::graph::WebGraph;
use memex_graph::hits::hits;
use memex_graph::neighborhood::{expand, Direction};
use memex_graph::trail::{TrailGraph, Visit};

fn graph_strategy() -> impl Strategy<Value = WebGraph> {
    proptest::collection::vec((0u32..20, 0u32..20), 0..80).prop_map(|edges| {
        let mut g = WebGraph::new();
        g.ensure_node(19);
        for (a, b) in edges {
            g.add_edge(a, b);
        }
        g
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// HITS scores are finite, non-negative and — when the base set has any
    /// edges at all — L2-normalised. An edge-free base set carries no link
    /// evidence and collapses to all-zero scores (documented degenerate
    /// case).
    #[test]
    fn hits_normalised(g in graph_strategy()) {
        let nodes: Vec<u32> = (0..g.num_nodes() as u32).collect();
        let scores = hits(&g, &nodes, 30, 1e-9);
        let hub_norm: f64 = scores.values().map(|s| s.hub * s.hub).sum::<f64>().sqrt();
        let auth_norm: f64 = scores.values().map(|s| s.authority * s.authority).sum::<f64>().sqrt();
        if g.num_edges() == 0 {
            prop_assert!(hub_norm.abs() < 1e-9 && auth_norm.abs() < 1e-9);
        } else {
            prop_assert!((hub_norm - 1.0).abs() < 1e-3, "hub norm {hub_norm}");
            prop_assert!((auth_norm - 1.0).abs() < 1e-3, "auth norm {auth_norm}");
        }
        for s in scores.values() {
            prop_assert!(s.hub >= -1e-12 && s.authority >= -1e-12);
            prop_assert!(s.hub.is_finite() && s.authority.is_finite());
        }
    }

    /// BFS expansion yields valid, non-decreasing distances and respects
    /// the node budget; distance-1 nodes really are neighbours.
    #[test]
    fn expand_distances_valid(g in graph_strategy(), seed in 0u32..20, radius in 0usize..4, budget in 1usize..30) {
        let out = expand(&g, &[seed], radius, Direction::Forward, budget);
        prop_assert!(out.len() <= budget);
        prop_assert!(!out.is_empty() && out[0] == (seed, 0));
        let mut last = 0usize;
        for &(node, d) in &out {
            prop_assert!(d >= last, "BFS order violated");
            prop_assert!(d <= radius);
            last = d;
            if d == 1 {
                prop_assert!(g.out_links(seed).contains(&node));
            }
        }
        // No duplicates.
        let mut nodes: Vec<u32> = out.iter().map(|&(n, _)| n).collect();
        nodes.sort_unstable();
        nodes.dedup();
        prop_assert_eq!(nodes.len(), out.len());
    }

    /// Trail replay returns only on-topic, visible, in-window pages, and
    /// widening any filter never shrinks the result.
    #[test]
    fn replay_filtering_laws(
        visits in proptest::collection::vec(
            (0u32..4, 0u32..3, 0u32..12, 0u64..1000, any::<bool>()), 0..60),
        since in 0u64..1000,
        viewer in 0u32..4,
    ) {
        let mut t = TrailGraph::new();
        for (user, session, page, time, public) in &visits {
            t.record(Visit {
                user: *user,
                session: *session,
                page: *page,
                time: *time,
                referrer: None,
                public: *public,
            });
        }
        let on_topic = |p: u32| p.is_multiple_of(2);
        let ctx = t.replay_context(on_topic, viewer, since, 100);
        for n in &ctx.nodes {
            prop_assert!(on_topic(n.page));
            prop_assert!(n.last_time >= since);
            prop_assert!(n.visit_count >= 1);
        }
        // Nodes sorted by recency.
        prop_assert!(ctx.nodes.windows(2).all(|w| w[0].last_time >= w[1].last_time));
        // Widening the window only adds pages.
        let wider = t.replay_context(on_topic, viewer, 0, 100);
        prop_assert!(wider.nodes.len() >= ctx.nodes.len());
        // An "everything" topic contains the even-page context.
        let all = t.replay_context(|_| true, viewer, since, 100);
        let all_pages: std::collections::HashSet<u32> = all.nodes.iter().map(|n| n.page).collect();
        for n in &ctx.nodes {
            prop_assert!(all_pages.contains(&n.page));
        }
    }

    /// user_pages is sorted, deduplicated and time-filtered.
    #[test]
    fn user_pages_wellformed(
        visits in proptest::collection::vec((0u32..3, 0u32..10, 0u64..100), 0..40),
        since in 0u64..100,
    ) {
        let mut t = TrailGraph::new();
        for (user, page, time) in &visits {
            t.record(Visit { user: *user, session: 0, page: *page, time: *time, referrer: None, public: true });
        }
        for user in 0..3u32 {
            let pages = t.user_pages(user, since);
            prop_assert!(pages.windows(2).all(|w| w[0] < w[1]));
            for &p in &pages {
                prop_assert!(visits.iter().any(|&(u, pg, tm)| u == user && pg == p && tm >= since));
            }
        }
    }
}
