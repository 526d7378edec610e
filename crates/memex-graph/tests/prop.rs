//! Property tests for the graph substrate: HITS normalisation, HITS over
//! CSR lists held bit for bit to the edge-list scatter it replaced, BFS
//! distance validity, trail-replay filtering laws on random graphs and
//! event streams, and the per-user / per-page visit lists and the page set
//! held to the whole-archive scans they replaced.

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;

use memex_graph::graph::{NodeId, WebGraph};
use memex_graph::hits::{hits, top_authorities};
use memex_graph::neighborhood::{expand, Direction};
use memex_graph::trail::{ContextNode, TrailContext, TrailGraph, Visit};

/// `TrailGraph::replay_context` as it was before the archive kept a list of
/// positions per page: a predicate asked once per visit in the archive, two
/// passes over all of it. The reference the indexed replay is held to.
fn replay_context_by_scan(
    visits: &[Visit],
    on_topic: impl Fn(u32) -> bool,
    viewer: u32,
    since: u64,
    max_pages: usize,
) -> TrailContext {
    let mut agg: HashMap<u32, ContextNode> = HashMap::new();
    for v in visits {
        if v.time < since || !(v.public || v.user == viewer) || !on_topic(v.page) {
            continue;
        }
        let e = agg.entry(v.page).or_insert(ContextNode {
            page: v.page,
            visit_count: 0,
            last_time: 0,
        });
        e.visit_count += 1;
        e.last_time = e.last_time.max(v.time);
    }
    let mut nodes: Vec<ContextNode> = agg.values().copied().collect();
    nodes.sort_by(|a, b| b.last_time.cmp(&a.last_time).then(a.page.cmp(&b.page)));
    nodes.truncate(max_pages);
    let kept: HashSet<u32> = nodes.iter().map(|n| n.page).collect();
    let mut edge_count: HashMap<(u32, u32), u32> = HashMap::new();
    for v in visits {
        if v.time < since || !(v.public || v.user == viewer) {
            continue;
        }
        if let Some(r) = v.referrer {
            if kept.contains(&r) && kept.contains(&v.page) && r != v.page {
                *edge_count.entry((r, v.page)).or_insert(0) += 1;
            }
        }
    }
    let mut edges: Vec<(u32, u32, u32)> = edge_count
        .into_iter()
        .map(|((a, b), c)| (a, b, c))
        .collect();
    edges.sort_unstable();
    TrailContext { nodes, edges }
}

/// The subgraph HITS ran on before it laid out CSR lists: the base set
/// sorted and deduplicated, and its edges by source, then target.
fn induced_subgraph(graph: &WebGraph, nodes: &[NodeId]) -> (Vec<NodeId>, Vec<(NodeId, NodeId)>) {
    let mut sorted: Vec<NodeId> = nodes.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let inside = |id: NodeId| sorted.binary_search(&id).is_ok();
    let mut edges = Vec::new();
    for &u in &sorted {
        for &v in graph.out_links(u) {
            if inside(v) {
                edges.push((u, v));
            }
        }
    }
    (sorted, edges)
}

/// HITS as it was: a `HashMap` index and a scatter over the edge list per
/// update. The reference the CSR gathers are held to, bit for bit.
fn hits_by_edge_list(
    graph: &WebGraph,
    nodes: &[NodeId],
    max_iters: usize,
    tol: f64,
) -> (Vec<NodeId>, Vec<f64>, Vec<f64>) {
    let (nodes, edges) = induced_subgraph(graph, nodes);
    let n = nodes.len();
    let index: HashMap<NodeId, usize> = nodes.iter().enumerate().map(|(i, &v)| (v, i)).collect();
    // Edge list in dense indices.
    let dense: Vec<(usize, usize)> = edges.iter().map(|&(u, v)| (index[&u], index[&v])).collect();
    let mut hub = vec![1.0f64; n];
    let mut auth = vec![1.0f64; n];
    // The next iteration's scores, swapped with the current ones each round.
    let mut new_hub = vec![0.0f64; n];
    let mut new_auth = vec![0.0f64; n];
    for _ in 0..max_iters {
        new_auth.fill(0.0);
        for &(u, v) in &dense {
            new_auth[v] += hub[u];
        }
        normalize(&mut new_auth);
        new_hub.fill(0.0);
        for &(u, v) in &dense {
            new_hub[u] += new_auth[v];
        }
        normalize(&mut new_hub);
        let delta: f64 = new_hub
            .iter()
            .zip(&hub)
            .chain(new_auth.iter().zip(&auth))
            .map(|(a, b)| (a - b).abs())
            .sum();
        std::mem::swap(&mut hub, &mut new_hub);
        std::mem::swap(&mut auth, &mut new_auth);
        if delta < tol {
            break;
        }
    }
    (nodes, hub, auth)
}

/// `top_authorities` over [`hits_by_edge_list`].
fn top_authorities_by_edge_list(
    graph: &WebGraph,
    nodes: &[NodeId],
    k: usize,
) -> Vec<(NodeId, f64)> {
    let (nodes, _, auth) = hits_by_edge_list(graph, nodes, 50, 1e-9);
    let mut v: Vec<(NodeId, f64)> = nodes.into_iter().zip(auth).collect();
    v.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
    v.truncate(k);
    v
}

fn normalize(v: &mut [f64]) {
    let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 0.0 {
        for x in v {
            *x /= norm;
        }
    }
}

/// `TrailGraph::user_pages` as it was: a filter over the whole archive.
fn user_pages_by_scan(visits: &[Visit], user: u32, since: u64) -> Vec<u32> {
    let mut pages: Vec<u32> = visits
        .iter()
        .filter(|v| v.user == user && v.time >= since)
        .map(|v| v.page)
        .collect();
    pages.sort_unstable();
    pages.dedup();
    pages
}

/// A user's visits as the archive holds them: the log filtered by user,
/// then stably sorted by `(page, time)`, so recorded order breaks ties.
fn user_list_by_scan(visits: &[Visit], user: u32) -> Vec<&Visit> {
    let mut of_user: Vec<&Visit> = visits.iter().filter(|v| v.user == user).collect();
    of_user.sort_by_key(|v| (v.page, v.time));
    of_user
}

/// The last visit of each page `user` visited in `[since, until]`, by page,
/// as recall computed it before the user's list was by page: every
/// in-window visit collected, sorted, and each page's run cut to its last.
fn last_visits_by_sort(visits: &[Visit], user: u32, since: u64, until: u64) -> Vec<(u32, u64)> {
    let mut visited: Vec<(u32, u64)> = visits
        .iter()
        .filter(|v| v.user == user && v.time >= since && v.time <= until)
        .map(|v| (v.page, v.time))
        .collect();
    visited.sort_unstable();
    visited.dedup_by(|later, kept| {
        let same_page = later.0 == kept.0;
        if same_page {
            kept.1 = later.1;
        }
        same_page
    });
    visited
}

/// Trails of four users over twelve pages: times in no order at all, a
/// third of the visits private, referrers absent, the page itself, another
/// page of the range or a page (12..14) nobody ever visits.
fn trail_strategy() -> impl Strategy<Value = Vec<Visit>> {
    let referrer = prop_oneof![
        2 => Just(None),
        3 => (0u32..14).prop_map(Some),
    ];
    proptest::collection::vec(
        (0u32..4, 0u32..3, 0u32..12, 0u64..50, referrer, 0u32..3),
        0..80,
    )
    .prop_map(|visits| {
        visits
            .into_iter()
            .map(|(user, session, page, time, referrer, private)| Visit {
                user,
                session,
                page,
                time,
                referrer,
                public: private != 0,
            })
            .collect()
    })
}

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

    /// HITS over CSR lists scores every node of the base set as the scatter
    /// over the edge list did, bit for bit, and ranks the same authorities —
    /// on base sets with repeated ids, ids past the graph and nodes with no
    /// edge at all, stopped by the iteration cap or by the tolerance.
    #[test]
    fn hits_equals_the_edge_list_scatter(
        g in graph_strategy(),
        base in proptest::collection::vec(0u32..26, 0..40),
        max_iters in 0usize..40,
        tol in prop_oneof![Just(0.0), Just(1e-9), Just(1e-3)],
        k in 0usize..30,
    ) {
        let (nodes, hub, auth) = hits_by_edge_list(&g, &base, max_iters, tol);
        let scores = hits(&g, &base, max_iters, tol);
        prop_assert_eq!(scores.len(), nodes.len());
        for ((v, h), a) in nodes.iter().zip(&hub).zip(&auth) {
            let got = scores.get(v).copied();
            prop_assert_eq!(
                got.map(|s| (s.hub.to_bits(), s.authority.to_bits())),
                Some((h.to_bits(), a.to_bits())),
                "node {}", v
            );
        }
        let bits = |top: Vec<(NodeId, f64)>| -> Vec<(NodeId, u64)> {
            top.into_iter().map(|(v, a)| (v, a.to_bits())).collect()
        };
        prop_assert_eq!(
            bits(top_authorities(&g, &base, k)),
            bits(top_authorities_by_edge_list(&g, &base, k))
        );
    }

    /// BFS expansion yields valid, non-decreasing distances and respects
    /// the node budget; distance-1 nodes really are neighbours.
    #[test]
    fn expand_distances_valid(g in graph_strategy(), seed in 0u32..20, radius in 0usize..4, budget in 0usize..30) {
        let out = expand(&g, &[seed], radius, Direction::Forward, budget);
        prop_assert!(out.len() <= budget);
        if budget == 0 {
            prop_assert!(out.is_empty());
            return Ok(());
        }
        prop_assert!(out[0] == (seed, 0));
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
        let evens = || (0u32..12).filter(|&p| on_topic(p));
        let ctx = t.replay_context(evens(), viewer, since, 100);
        for n in &ctx.nodes {
            prop_assert!(on_topic(n.page));
            prop_assert!(n.last_time >= since);
            prop_assert!(n.visit_count >= 1);
        }
        // Nodes sorted by recency.
        prop_assert!(ctx.nodes.windows(2).all(|w| w[0].last_time >= w[1].last_time));
        // Widening the window only adds pages.
        let wider = t.replay_context(evens(), viewer, 0, 100);
        prop_assert!(wider.nodes.len() >= ctx.nodes.len());
        // An "everything" topic contains the even-page context.
        let all = t.replay_context(0u32..12, viewer, since, 100);
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

    /// The indexed replay answers what the two-pass scan answered — nodes,
    /// their order, edges and counts — whatever the trail, for viewers who
    /// never surfed (4, 5), every `max_pages` from 0 up, and an on-topic
    /// input that names pages nobody visited, names a page twice and comes
    /// in no order.
    #[test]
    fn indexed_replay_equals_the_scan(
        visits in trail_strategy(),
        on_topic in proptest::collection::vec(0u32..16, 0..20),
        viewer in 0u32..6,
        since in 0u64..50,
        max_pages in 0usize..14,
    ) {
        let mut t = TrailGraph::new();
        for v in &visits {
            t.record(*v);
        }
        let got = t.replay_context(on_topic.iter().copied(), viewer, since, max_pages);
        let expected =
            replay_context_by_scan(&visits, |p| on_topic.contains(&p), viewer, since, max_pages);
        prop_assert_eq!(got, expected);
    }

    /// After every `record`, a user's list is exactly the archive filtered
    /// and stably sorted by `(page, time)` — recorded order breaking ties —
    /// and a page's list exactly the archive filtered, in recorded order,
    /// forwards and backwards; and `user_pages` is what the scan gave, for
    /// unknown users (4, 5) too.
    #[test]
    fn lists_equal_the_filtered_log_after_every_record(
        visits in trail_strategy(),
        since in 0u64..50,
    ) {
        let mut t = TrailGraph::new();
        for (i, v) in visits.iter().enumerate() {
            t.record(*v);
            let log = &visits[..=i];
            prop_assert_eq!(t.visits(), log);
            prop_assert_eq!(t.user_visits(v.user).collect::<Vec<_>>(), user_list_by_scan(log, v.user));
            let to_page: Vec<&Visit> = log.iter().filter(|x| x.page == v.page).collect();
            prop_assert_eq!(t.page_visits(v.page).collect::<Vec<_>>(), to_page);
        }
        for key in 0u32..14 {
            let of_user: Vec<&Visit> = user_list_by_scan(&visits, key).into_iter().rev().collect();
            prop_assert_eq!(t.user_visits(key).rev().collect::<Vec<_>>(), of_user);
            let to_page: Vec<&Visit> = visits.iter().filter(|x| x.page == key).rev().collect();
            prop_assert_eq!(t.page_visits(key).rev().collect::<Vec<_>>(), to_page);
            prop_assert_eq!(t.user_pages(key, since), user_pages_by_scan(&visits, key, since));
        }
    }

    /// A user's list is by page, each page's run by time: one pass that
    /// keeps the last in-window time of each run is the sorted-and-cut
    /// answer, for every window, unknown users (4, 5) included.
    #[test]
    fn one_pass_over_a_user_list_is_the_last_visit_per_page(
        visits in trail_strategy(),
        since in 0u64..50,
        span in 0u64..60,
    ) {
        let mut t = TrailGraph::new();
        for v in &visits {
            t.record(*v);
        }
        let until = since + span;
        for user in 0u32..6 {
            let mut one_pass: Vec<(u32, u64)> = Vec::new();
            for v in t.user_visits(user).filter(|v| v.time >= since && v.time <= until) {
                match one_pass.last_mut() {
                    Some((page, time)) if *page == v.page => *time = v.time,
                    _ => one_pass.push((v.page, v.time)),
                }
            }
            prop_assert_eq!(one_pass, last_visits_by_sort(&visits, user, since, until));
        }
    }

    /// After every `record`, the page set is the distinct pages of the log.
    #[test]
    fn pages_are_the_distinct_pages_of_the_log(visits in trail_strategy()) {
        let mut t = TrailGraph::new();
        prop_assert_eq!(t.num_pages(), 0);
        for v in &visits {
            t.record(*v);
            let mut pages: Vec<u32> = t.pages().collect();
            pages.sort_unstable();
            let mut expected: Vec<u32> = t.visits().iter().map(|x| x.page).collect();
            expected.sort_unstable();
            expected.dedup();
            prop_assert_eq!(t.num_pages(), expected.len());
            prop_assert_eq!(pages, expected);
        }
    }
}
