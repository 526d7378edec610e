//! Bounded-radius neighbourhood expansion — "explore a limited radius
//! neighborhood and draw clickable graphs" (§5, the Mapuccino/Fetuccino
//! comparison) and the base-set construction for HITS.

use std::collections::VecDeque;

use crate::graph::{NodeId, WebGraph};

/// Direction of expansion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    Forward,
    Backward,
    Both,
}

/// BFS from `seeds` up to `radius` hops, following `direction` links,
/// visiting at most `max_nodes` nodes. Returns `(node, distance)` pairs in
/// BFS order (seeds first, distance 0).
pub fn expand(
    graph: &WebGraph,
    seeds: &[NodeId],
    radius: usize,
    direction: Direction,
    max_nodes: usize,
) -> Vec<(NodeId, usize)> {
    if max_nodes == 0 {
        return Vec::new();
    }
    let n = graph.num_nodes();
    let mut dist: Vec<Option<usize>> = vec![None; n];
    let mut queue = VecDeque::new();
    let mut out = Vec::new();
    for &s in seeds {
        if (s as usize) < n && dist[s as usize].is_none() {
            dist[s as usize] = Some(0);
            queue.push_back(s);
            out.push((s, 0));
            if out.len() >= max_nodes {
                return out;
            }
        }
    }
    while let Some(u) = queue.pop_front() {
        // Queued nodes always have a distance; skip defensively instead
        // of panicking on the read path if that invariant ever breaks.
        let Some(d) = dist.get(u as usize).copied().flatten() else {
            continue;
        };
        if d >= radius {
            continue;
        }
        let nexts: Box<dyn Iterator<Item = NodeId> + '_> = match direction {
            Direction::Forward => Box::new(graph.out_links(u).iter().copied()),
            Direction::Backward => Box::new(graph.in_links(u).iter().copied()),
            Direction::Both => Box::new(
                graph
                    .out_links(u)
                    .iter()
                    .copied()
                    .chain(graph.in_links(u).iter().copied()),
            ),
        };
        for v in nexts {
            if dist[v as usize].is_none() {
                dist[v as usize] = Some(d + 1);
                queue.push_back(v);
                out.push((v, d + 1));
                if out.len() >= max_nodes {
                    return out;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: u32) -> WebGraph {
        let mut g = WebGraph::new();
        for i in 0..n - 1 {
            g.add_edge(i, i + 1);
        }
        g
    }

    #[test]
    fn forward_radius_limits_depth() {
        let g = chain(10);
        let hits = expand(&g, &[0], 3, Direction::Forward, usize::MAX);
        assert_eq!(hits, vec![(0, 0), (1, 1), (2, 2), (3, 3)]);
    }

    #[test]
    fn backward_follows_in_links() {
        let g = chain(10);
        let hits = expand(&g, &[5], 2, Direction::Backward, usize::MAX);
        assert_eq!(hits, vec![(5, 0), (4, 1), (3, 2)]);
    }

    #[test]
    fn both_directions_union() {
        let g = chain(10);
        let hits = expand(&g, &[5], 1, Direction::Both, usize::MAX);
        let nodes: Vec<NodeId> = hits.iter().map(|&(n, _)| n).collect();
        assert_eq!(nodes, vec![5, 6, 4]);
    }

    #[test]
    fn node_budget_respected() {
        let g = chain(100);
        let hits = expand(&g, &[0], 99, Direction::Forward, 5);
        assert_eq!(hits.len(), 5);
    }

    #[test]
    fn zero_budget_visits_nothing() {
        let g = chain(3);
        assert!(expand(&g, &[0, 1], 2, Direction::Both, 0).is_empty());
        assert_eq!(expand(&g, &[0, 1], 2, Direction::Both, 1), vec![(0, 0)]);
    }

    #[test]
    fn duplicate_seeds_and_unknown_nodes() {
        let g = chain(3);
        let hits = expand(&g, &[0, 0, 99], 1, Direction::Forward, usize::MAX);
        assert_eq!(hits, vec![(0, 0), (1, 1)]);
    }
}
