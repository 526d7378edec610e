//! Kleinberg's HITS on an induced subgraph — the link-analysis half of the
//! paper's resource discovery: "automatic resource discovery is undertaken
//! by demons to update users about recent and/or authoritative sources"
//! (§4, following ref \[5\] which ranks with hubs/authorities).

use std::collections::HashMap;

use crate::graph::{NodeId, WebGraph};

/// Hub and authority scores for one node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HitsScore {
    pub hub: f64,
    pub authority: f64,
}

/// Run HITS restricted to `nodes` (the "base set"). Returns per-node
/// scores, L2-normalised, after at most `max_iters` iterations or until the
/// score change drops below `tol`.
pub fn hits(
    graph: &WebGraph,
    nodes: &[NodeId],
    max_iters: usize,
    tol: f64,
) -> HashMap<NodeId, HitsScore> {
    let (nodes, hub, auth) = hits_dense(graph, nodes, max_iters, tol);
    nodes
        .into_iter()
        .zip(hub.into_iter().zip(auth))
        .map(|(v, (hub, authority))| (v, HitsScore { hub, authority }))
        .collect()
}

/// [`hits`] as three parallel vectors: the base set sorted and
/// deduplicated, each node's hub score, each node's authority score.
///
/// The induced subgraph is laid out once as two CSR (compressed sparse row)
/// lists over base-set positions: each node's out-links, targets ascending,
/// and its in-links, sources ascending. Each update is then a gather, and a
/// node's sum adds the same terms in the same order as a scatter over the
/// edge list sorted by (source, target) would.
fn hits_dense(
    graph: &WebGraph,
    nodes: &[NodeId],
    max_iters: usize,
    tol: f64,
) -> (Vec<NodeId>, Vec<f64>, Vec<f64>) {
    let mut nodes = nodes.to_vec();
    nodes.sort_unstable();
    nodes.dedup();
    let n = nodes.len();
    // Graph node -> base-set position, `OUTSIDE` when not in the base set.
    // A base node past the graph has no links and needs no slot.
    let mut position = vec![OUTSIDE; graph.num_nodes()];
    for (i, &v) in nodes.iter().enumerate() {
        if let Some(slot) = position.get_mut(v as usize) {
            *slot = i as u32;
        }
    }
    let csr = |links: fn(&WebGraph, NodeId) -> &[NodeId]| {
        let mut start = Vec::with_capacity(n + 1);
        let mut adjacent: Vec<u32> = Vec::new();
        start.push(0);
        for &v in &nodes {
            let inside = links(graph, v).iter().map(|&u| position[u as usize]);
            adjacent.extend(inside.filter(|&at| at != OUTSIDE));
            start.push(adjacent.len());
        }
        (start, adjacent)
    };
    let (out_start, out_adj) = csr(WebGraph::out_links);
    let (in_start, in_adj) = csr(WebGraph::in_links);
    let gather = |start: &[usize], adjacent: &[u32], from: &[f64], to: &mut [f64]| {
        for (v, slot) in to.iter_mut().enumerate() {
            *slot = adjacent[start[v]..start[v + 1]]
                .iter()
                .fold(0.0, |sum, &u| sum + from[u as usize]);
        }
    };
    let mut hub = vec![1.0f64; n];
    let mut auth = vec![1.0f64; n];
    // The next iteration's scores, swapped with the current ones each round.
    let mut new_hub = vec![0.0f64; n];
    let mut new_auth = vec![0.0f64; n];
    for _ in 0..max_iters {
        gather(&in_start, &in_adj, &hub, &mut new_auth);
        normalize(&mut new_auth);
        gather(&out_start, &out_adj, &new_auth, &mut new_hub);
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

/// Position of a graph node outside the base set.
const OUTSIDE: u32 = u32::MAX;

/// Top-`k` authorities within `nodes`, descending.
pub fn top_authorities(graph: &WebGraph, nodes: &[NodeId], k: usize) -> Vec<(NodeId, f64)> {
    let (nodes, _, auth) = hits_dense(graph, nodes, 50, 1e-9);
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Star: hubs 1..=4 all point at node 0 -> node 0 is the authority.
    #[test]
    fn star_authority() {
        let mut g = WebGraph::new();
        for hub_node in 1..=4u32 {
            g.add_edge(hub_node, 0);
        }
        let nodes: Vec<NodeId> = (0..5).collect();
        let scores = hits(&g, &nodes, 50, 1e-12);
        assert!(scores[&0].authority > 0.99);
        for h in 1..=4u32 {
            assert!(scores[&h].hub > 0.49, "hubs share hub mass");
            assert!(scores[&h].authority < 1e-6);
        }
    }

    /// A bipartite hub/authority community outranks a stray chain.
    #[test]
    fn community_beats_chain() {
        let mut g = WebGraph::new();
        // Dense community: hubs 10,11,12 each cite authorities 20,21.
        for h in 10..=12u32 {
            for a in 20..=21u32 {
                g.add_edge(h, a);
            }
        }
        // Stray chain.
        g.add_edge(30, 31);
        let nodes: Vec<NodeId> = vec![10, 11, 12, 20, 21, 30, 31];
        let top = top_authorities(&g, &nodes, 2);
        let top_ids: Vec<NodeId> = top.iter().map(|&(n, _)| n).collect();
        assert!(top_ids.contains(&20) && top_ids.contains(&21));
    }

    #[test]
    fn empty_and_edgeless_inputs() {
        let g = WebGraph::new();
        assert!(hits(&g, &[], 10, 1e-6).is_empty());
        let mut g = WebGraph::new();
        g.ensure_node(3);
        let scores = hits(&g, &[0, 1], 10, 1e-6);
        assert_eq!(scores.len(), 2, "nodes without edges still get scores");
    }

    #[test]
    fn scores_only_use_induced_edges() {
        let mut g = WebGraph::new();
        g.add_edge(1, 0);
        g.add_edge(2, 0); // 2 outside the base set
        let scores = hits(&g, &[0, 1], 50, 1e-12);
        assert!(scores[&0].authority > 0.99);
        assert!(!scores.contains_key(&2));
    }
}
