//! Trail graphs: the timestamped record of who visited what, and the
//! topical *context replay* behind the paper's trail tab (Fig. 2) —
//! "selecting a folder replays the hypertext graph of recent pages publicly
//! surfed by the community which are most likely to belong to the selected
//! topic, and thus recreates the user's browsing context."
//!
//! The archive is append-only, so it is indexed by position: beside the
//! flat visit log, each user and each page has the list of positions of
//! its own visits. Every question here is about somebody
//! ([`TrailGraph::user_visits`], [`TrailGraph::user_pages`]) or about some
//! pages ([`TrailGraph::page_visits`], [`TrailGraph::replay_context`]) and
//! costs the visits of that user or of those pages, not the archive. A
//! page's list is in recorded order. A user's list is in `(page, time)`
//! order, recorded order breaking ties: what a user's questions group by
//! is the page, so a user's distinct pages, or the last visit of each, are
//! one pass over runs with nothing sorted. Neither list is in time order —
//! visits may arrive slightly out of order — so a time window is a filter
//! over a list, never a binary search. The pages with a list are the set
//! of pages surfed ([`TrailGraph::pages`]; nobody keeps a copy).
//! The flat log ([`TrailGraph::visits`]) stays for what reads the archive
//! by position: the write path's cursors ("everything recorded since I last
//! looked") and the experiments.

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
    /// Positions in `visits` of each user's visits, in `(page, time,
    /// position)` order.
    by_user: HashMap<u32, Vec<u32>>,
    /// Positions in `visits` of the visits to each page, in recorded order.
    by_page: HashMap<NodeId, Vec<u32>>,
}

impl TrailGraph {
    pub fn new() -> TrailGraph {
        TrailGraph::default()
    }

    /// Record a visit. Visits may arrive slightly out of order (the paper's
    /// demons are asynchronous). The user's list takes the new position at
    /// its `(page, time)` place — after every visit that does not come
    /// later, its position being the largest — and the page's list appends
    /// it. The insert moves every later entry of the user's list: O(own
    /// history) per visit.
    pub fn record(&mut self, visit: Visit) {
        // 2^32 visits are 128 GiB of `visits` alone: out of memory first.
        assert!(
            self.visits.len() < u32::MAX as usize,
            "visit positions are u32"
        );
        let position = self.visits.len() as u32;
        let key = (visit.page, visit.time);
        let mine = self.by_user.entry(visit.user).or_default();
        let at = mine.partition_point(|&p| {
            let v = &self.visits[p as usize];
            (v.page, v.time) <= key
        });
        mine.insert(at, position);
        self.by_page.entry(visit.page).or_default().push(position);
        self.visits.push(visit);
    }

    pub fn len(&self) -> usize {
        self.visits.len()
    }

    pub fn is_empty(&self) -> bool {
        self.visits.is_empty()
    }

    /// Every visit, in recorded order.
    pub fn visits(&self) -> &[Visit] {
        &self.visits
    }

    /// Every user with at least one visit, in no particular order.
    pub fn users(&self) -> impl Iterator<Item = u32> + '_ {
        self.by_user.keys().copied()
    }

    /// Every page with at least one visit, in no particular order.
    pub fn pages(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.by_page.keys().copied()
    }

    /// How many distinct pages were visited.
    pub fn num_pages(&self) -> usize {
        self.by_page.len()
    }

    /// The visits of `user`, by page, each page's by time, visits of one
    /// page at one time in recorded order.
    pub fn user_visits(&self, user: u32) -> impl DoubleEndedIterator<Item = &Visit> {
        self.at(self.by_user.get(&user))
    }

    /// The visits to `page` by anybody, private ones included, in recorded
    /// order.
    pub fn page_visits(&self, page: NodeId) -> impl DoubleEndedIterator<Item = &Visit> {
        self.at(self.by_page.get(&page))
    }

    fn at<'a>(
        &'a self,
        positions: Option<&'a Vec<u32>>,
    ) -> impl DoubleEndedIterator<Item = &'a Visit> {
        positions
            .into_iter()
            .flatten()
            .map(|&position| &self.visits[position as usize])
    }

    /// Replay the recent topical context (Fig. 2).
    ///
    /// * `on_topic` — the pages the classifier routes to the topic (pages
    ///   nobody visited contribute nothing);
    /// * `viewer` — private visits of other users are excluded;
    /// * `since` — only visits at/after this time;
    /// * `max_pages` — cap on replayed pages (most recent win).
    pub fn replay_context(
        &self,
        on_topic: impl IntoIterator<Item = NodeId>,
        viewer: u32,
        since: u64,
        max_pages: usize,
    ) -> TrailContext {
        let visible = |v: &&Visit| v.time >= since && (v.public || v.user == viewer);
        // One node per on-topic page, from that page's own visible visits.
        let mut nodes: Vec<ContextNode> = on_topic
            .into_iter()
            .filter_map(|page| {
                let mut node = ContextNode {
                    page,
                    visit_count: 0,
                    last_time: 0,
                };
                for v in self.page_visits(page).filter(visible) {
                    node.visit_count += 1;
                    node.last_time = node.last_time.max(v.time);
                }
                (node.visit_count > 0).then_some(node)
            })
            .collect();
        nodes.sort_by(|a, b| b.last_time.cmp(&a.last_time).then(a.page.cmp(&b.page)));
        // A page named twice made two equal nodes, now adjacent.
        nodes.dedup();
        nodes.truncate(max_pages);
        // Traversed edges among kept pages: every hop into a kept page is
        // in that page's list.
        let mut kept: Vec<NodeId> = nodes.iter().map(|n| n.page).collect();
        kept.sort_unstable();
        let mut hops: Vec<(NodeId, NodeId)> = Vec::new();
        for &page in &kept {
            for v in self.page_visits(page).filter(visible) {
                if let Some(r) = v.referrer {
                    if r != page && kept.binary_search(&r).is_ok() {
                        hops.push((r, page));
                    }
                }
            }
        }
        hops.sort_unstable();
        let mut edges: Vec<(NodeId, NodeId, u32)> = Vec::new();
        for (from, to) in hops {
            match edges.last_mut() {
                Some((a, b, count)) if (*a, *b) == (from, to) => *count += 1,
                _ => edges.push((from, to, 1)),
            }
        }
        TrailContext { nodes, edges }
    }

    /// Distinct pages visited by `user` (optionally only after `since`),
    /// sorted: [`TrailGraph::user_visits`] is already by page.
    pub fn user_pages(&self, user: u32, since: u64) -> Vec<NodeId> {
        let mut pages: Vec<NodeId> = self
            .user_visits(user)
            .filter(|v| v.time >= since)
            .map(|v| v.page)
            .collect();
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
        let music = 0..=3;
        let ctx = t.replay_context(music.clone(), 1, 0, 10);
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
        let ctx3 = t.replay_context(music.clone(), 3, 0, 10);
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
        let ctx = t.replay_context(0..20, 1, 0, 5);
        assert_eq!(ctx.nodes.len(), 5);
        assert_eq!(ctx.nodes[0].page, 19);
        assert_eq!(ctx.nodes[4].page, 15);
    }

    #[test]
    fn edges_are_counted_among_the_kept_pages_only() {
        let mut t = TrailGraph::new();
        t.record(v(1, 0, 1, 10, None));
        t.record(v(1, 0, 2, 20, Some(1)));
        t.record(v(2, 0, 2, 21, Some(1)));
        t.record(v(1, 0, 2, 22, Some(2))); // a reload is no traversal
        t.record(v(1, 0, 3, 30, Some(2)));
        t.record(v(1, 0, 3, 31, Some(9))); // from a page off the topic
        let ctx = t.replay_context([3, 1, 2, 2, 7], 1, 0, 10);
        assert_eq!(ctx.nodes.len(), 3, "a page named twice is one node");
        assert_eq!(ctx.edges, vec![(1, 2, 2), (2, 3, 1)]);
        // Page 1 falls to the cap, and its edge with it.
        let capped = t.replay_context([1, 2, 3], 1, 0, 2);
        assert_eq!(capped.edges, vec![(2, 3, 1)]);
        assert!(t.replay_context([1, 2, 3], 1, 0, 0).nodes.is_empty());
    }

    #[test]
    fn user_lists_are_by_page_and_time_page_lists_in_recorded_order() {
        let mut t = TrailGraph::new();
        let log = [
            v(1, 0, 6, 30, None),
            v(2, 0, 5, 10, None),
            v(1, 0, 5, 20, Some(6)),
            v(2, 1, 6, 5, None),
            v(1, 1, 5, 15, None),
            v(1, 1, 5, 15, Some(9)),
        ];
        for (i, visit) in log.iter().enumerate() {
            t.record(*visit);
            // Right after each `record`, not only at the end.
            let mut mine: Vec<&Visit> = t.visits().iter().filter(|x| x.user == 1).collect();
            mine.sort_by_key(|x| (x.page, x.time));
            assert_eq!(t.user_visits(1).collect::<Vec<_>>(), mine, "after #{i}");
        }
        let of_1: Vec<(u32, u64, Option<u32>)> = t
            .user_visits(1)
            .map(|x| (x.page, x.time, x.referrer))
            .collect();
        assert_eq!(
            of_1,
            vec![
                (5, 15, None),
                (5, 15, Some(9)),
                (5, 20, Some(6)),
                (6, 30, None)
            ],
            "by page, then time, then recorded order"
        );
        let to_5: Vec<u64> = t.page_visits(5).map(|x| x.time).collect();
        assert_eq!(to_5, vec![10, 20, 15, 15], "recorded order, not time order");
        let back: Vec<u64> = t.page_visits(6).rev().map(|x| x.time).collect();
        assert_eq!(back, vec![5, 30]);
        assert_eq!(t.user_visits(9).count() + t.page_visits(9).count(), 0);
        let mut users: Vec<u32> = t.users().collect();
        users.sort_unstable();
        assert_eq!(users, vec![1, 2]);
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
