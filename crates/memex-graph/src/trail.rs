//! Trail graphs: the timestamped record of who visited what, and the
//! topical *context replay* behind the paper's trail tab (Fig. 2) —
//! "selecting a folder replays the hypertext graph of recent pages publicly
//! surfed by the community which are most likely to belong to the selected
//! topic, and thus recreates the user's browsing context."

use std::collections::HashMap;

use crate::graph::NodeId;

/// One browsing event. Times are logical milliseconds (the simulator's
/// clock); `referrer` is the page whose link was followed, when known.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Visit {
    pub user: u32,
    pub session: u32,
    pub page: NodeId,
    pub time: u64,
    pub referrer: Option<NodeId>,
    /// False for private-mode visits: they replay only for their owner.
    pub public: bool,
}

/// A node of a replayed context.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContextNode {
    pub page: NodeId,
    pub visit_count: u32,
    pub last_time: u64,
}

/// The replayed topical browsing context: a small hypertext graph.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrailContext {
    /// Pages, most-recently-visited first.
    pub nodes: Vec<ContextNode>,
    /// Traversed links among those pages, with traversal counts.
    pub edges: Vec<(NodeId, NodeId, u32)>,
}

/// Append-only archive of visits with trail-graph queries.
#[derive(Debug, Clone, Default)]
pub struct TrailGraph {
    visits: Vec<Visit>,
}

impl TrailGraph {
    pub fn new() -> TrailGraph {
        TrailGraph::default()
    }

    /// Record a visit. Visits may arrive slightly out of order (the paper's
    /// demons are asynchronous); queries sort as needed.
    pub fn record(&mut self, visit: Visit) {
        self.visits.push(visit);
    }

    pub fn len(&self) -> usize {
        self.visits.len()
    }

    pub fn is_empty(&self) -> bool {
        self.visits.is_empty()
    }

    pub fn visits(&self) -> &[Visit] {
        &self.visits
    }

    /// Replay the recent topical context (Fig. 2).
    ///
    /// * `on_topic` — the classifier's verdict for a page;
    /// * `viewer` — private visits of other users are excluded;
    /// * `since` — only visits at/after this time;
    /// * `max_pages` — cap on replayed pages (most recent win).
    pub fn replay_context<F: Fn(NodeId) -> bool>(
        &self,
        on_topic: F,
        viewer: u32,
        since: u64,
        max_pages: usize,
    ) -> TrailContext {
        // Aggregate visible on-topic visits per page.
        let mut agg: HashMap<NodeId, ContextNode> = HashMap::new();
        for v in &self.visits {
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
        let kept: std::collections::HashSet<NodeId> = nodes.iter().map(|n| n.page).collect();
        // Traversed edges among kept pages.
        let mut edge_count: HashMap<(NodeId, NodeId), u32> = HashMap::new();
        for v in &self.visits {
            if v.time < since || !(v.public || v.user == viewer) {
                continue;
            }
            if let Some(r) = v.referrer {
                if kept.contains(&r) && kept.contains(&v.page) && r != v.page {
                    *edge_count.entry((r, v.page)).or_insert(0) += 1;
                }
            }
        }
        let mut edges: Vec<(NodeId, NodeId, u32)> = edge_count
            .into_iter()
            .map(|((a, b), c)| (a, b, c))
            .collect();
        edges.sort_unstable();
        TrailContext { nodes, edges }
    }

    /// Distinct pages visited by `user` (optionally only after `since`).
    pub fn user_pages(&self, user: u32, since: u64) -> Vec<NodeId> {
        let mut pages: Vec<NodeId> = self
            .visits
            .iter()
            .filter(|v| v.user == user && v.time >= since)
            .map(|v| v.page)
            .collect();
        pages.sort_unstable();
        pages.dedup();
        pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(user: u32, session: u32, page: NodeId, time: u64, referrer: Option<NodeId>) -> Visit {
        Visit {
            user,
            session,
            page,
            time,
            referrer,
            public: true,
        }
    }

    #[test]
    fn replay_filters_topic_time_and_privacy() {
        let mut t = TrailGraph::new();
        // Music pages: 1,2,3. Other: 50.
        t.record(v(1, 0, 1, 10, None));
        t.record(v(1, 0, 2, 11, Some(1)));
        t.record(v(2, 0, 3, 12, Some(2)));
        t.record(v(2, 0, 50, 13, Some(3)));
        t.record(Visit {
            user: 3,
            session: 0,
            page: 2,
            time: 14,
            referrer: None,
            public: false,
        });
        let music = |p: NodeId| p <= 3;
        let ctx = t.replay_context(music, 1, 0, 10);
        let pages: Vec<NodeId> = ctx.nodes.iter().map(|n| n.page).collect();
        assert_eq!(pages, vec![3, 2, 1], "most recent first");
        assert_eq!(
            ctx.edges,
            vec![(1, 2, 1), (2, 3, 1)],
            "only on-topic traversals kept"
        );
        // Private visit of user 3 contributed nothing for viewer 1...
        assert_eq!(
            ctx.nodes.iter().find(|n| n.page == 2).unwrap().visit_count,
            1
        );
        // ...but does for its owner.
        let ctx3 = t.replay_context(music, 3, 0, 10);
        assert_eq!(
            ctx3.nodes.iter().find(|n| n.page == 2).unwrap().visit_count,
            2
        );
        // Time filter.
        let recent = t.replay_context(music, 1, 12, 10);
        assert_eq!(recent.nodes.len(), 1);
    }

    #[test]
    fn replay_caps_pages_keeping_most_recent() {
        let mut t = TrailGraph::new();
        for i in 0..20u32 {
            t.record(v(1, 0, i, u64::from(i), None));
        }
        let ctx = t.replay_context(|_| true, 1, 0, 5);
        assert_eq!(ctx.nodes.len(), 5);
        assert_eq!(ctx.nodes[0].page, 19);
        assert_eq!(ctx.nodes[4].page, 15);
    }

    #[test]
    fn user_pages_dedup() {
        let mut t = TrailGraph::new();
        t.record(v(1, 0, 5, 1, None));
        t.record(v(1, 0, 5, 2, None));
        t.record(v(1, 0, 6, 3, None));
        assert_eq!(t.user_pages(1, 0), vec![5, 6]);
        assert_eq!(t.user_pages(1, 3), vec![6]);
    }
}
