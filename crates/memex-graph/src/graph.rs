//! A compact directed graph over dense node ids, with both out- and
//! in-adjacency kept sorted for merge-style algorithms.

/// Dense node identifier (page id within a corpus).
pub type NodeId = u32;

/// Directed graph with O(1) amortised edge insertion and sorted adjacency.
#[derive(Debug, Clone, Default)]
pub struct WebGraph {
    out: Vec<Vec<NodeId>>,
    inn: Vec<Vec<NodeId>>,
    num_edges: u64,
}

impl WebGraph {
    pub fn new() -> WebGraph {
        WebGraph::default()
    }

    /// Pre-size for `n` nodes.
    pub fn with_nodes(n: usize) -> WebGraph {
        WebGraph {
            out: vec![Vec::new(); n],
            inn: vec![Vec::new(); n],
            num_edges: 0,
        }
    }

    /// Ensure node `id` exists (nodes are implicit 0..n).
    pub fn ensure_node(&mut self, id: NodeId) {
        let need = id as usize + 1;
        if self.out.len() < need {
            self.out.resize_with(need, Vec::new);
            self.inn.resize_with(need, Vec::new);
        }
    }

    /// Add edge `from -> to` (self-loops ignored, duplicates ignored).
    /// Returns true if the edge was new.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) -> bool {
        if from == to {
            return false;
        }
        self.ensure_node(from.max(to));
        let out = &mut self.out[from as usize];
        match out.binary_search(&to) {
            Ok(_) => false,
            Err(pos) => {
                out.insert(pos, to);
                let inn = &mut self.inn[to as usize];
                // `inn` mirrors `out`, so `from` is absent here too.
                let (Ok(ipos) | Err(ipos)) = inn.binary_search(&from);
                inn.insert(ipos, from);
                self.num_edges += 1;
                true
            }
        }
    }

    pub fn has_edge(&self, from: NodeId, to: NodeId) -> bool {
        self.out
            .get(from as usize)
            .is_some_and(|v| v.binary_search(&to).is_ok())
    }

    /// Sorted out-neighbours.
    pub fn out_links(&self, id: NodeId) -> &[NodeId] {
        self.out.get(id as usize).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Sorted in-neighbours.
    pub fn in_links(&self, id: NodeId) -> &[NodeId] {
        self.inn.get(id as usize).map(Vec::as_slice).unwrap_or(&[])
    }

    pub fn out_degree(&self, id: NodeId) -> usize {
        self.out_links(id).len()
    }

    /// Number of (implicit) nodes.
    pub fn num_nodes(&self) -> usize {
        self.out.len()
    }

    pub fn num_edges(&self) -> u64 {
        self.num_edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edges_dedup_and_count() {
        let mut g = WebGraph::new();
        assert!(g.add_edge(0, 1));
        assert!(!g.add_edge(0, 1), "duplicate rejected");
        assert!(!g.add_edge(2, 2), "self-loop rejected");
        assert!(g.add_edge(1, 0));
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(0, 2));
    }

    #[test]
    fn adjacency_is_sorted_and_mirrored() {
        let mut g = WebGraph::new();
        for to in [5u32, 3, 9, 1] {
            g.add_edge(0, to);
        }
        assert_eq!(g.out_links(0), &[1, 3, 5, 9]);
        for to in [5u32, 3, 9, 1] {
            assert_eq!(g.in_links(to), &[0]);
        }
        assert_eq!(g.out_degree(0), 4);
        assert!(g.in_links(0).is_empty());
    }

    #[test]
    fn nodes_grow_implicitly() {
        let mut g = WebGraph::new();
        g.add_edge(100, 7);
        assert_eq!(g.num_nodes(), 101);
        assert!(g.out_links(50).is_empty());
        assert!(
            g.out_links(9999).is_empty(),
            "out-of-range is empty, not panic"
        );
    }
}
