//! Topic taxonomies: rooted, ordered trees of named topics.
//!
//! The same structure serves three roles in Memex: a user's editable
//! folder tree (Fig. 1), the classifier's class hierarchy (ref \[3\]), and
//! the community theme hierarchy synthesised by `memex-cluster` (Fig. 4).

use std::collections::HashMap;
use std::mem::size_of;

/// Dense topic/node identifier within one taxonomy. The root is always 0.
pub type TopicId = u32;

#[derive(Debug, Clone)]
struct Node {
    name: String,
    parent: Option<TopicId>,
    children: Vec<TopicId>,
    deleted: bool,
}

/// A rooted tree of topics.
#[derive(Debug, Clone)]
pub struct Taxonomy {
    nodes: Vec<Node>,
}

impl Default for Taxonomy {
    fn default() -> Self {
        Self::new()
    }
}

impl Taxonomy {
    /// A taxonomy containing only the root (named "/").
    pub fn new() -> Taxonomy {
        Taxonomy {
            nodes: vec![Node {
                name: "/".to_string(),
                parent: None,
                children: Vec::new(),
                deleted: false,
            }],
        }
    }

    pub const ROOT: TopicId = 0;

    /// Add a child topic under `parent`; returns the new id.
    pub fn add_child(&mut self, parent: TopicId, name: &str) -> TopicId {
        assert!(self.is_live(parent), "parent {parent} does not exist");
        let id = self.nodes.len() as TopicId;
        self.nodes.push(Node {
            name: name.to_string(),
            parent: Some(parent),
            children: Vec::new(),
            deleted: false,
        });
        self.nodes[parent as usize].children.push(id);
        id
    }

    /// Build a path of nested topics (creating missing components), e.g.
    /// `add_path(&["Music", "Western Classical"])`. Returns the leaf id.
    pub fn add_path(&mut self, components: &[&str]) -> TopicId {
        let mut current = Self::ROOT;
        for comp in components {
            current = match self
                .children(current)
                .iter()
                .copied()
                .find(|&c| self.name(c) == *comp)
            {
                Some(existing) => existing,
                None => self.add_child(current, comp),
            };
        }
        current
    }

    /// Is `id` a live (non-deleted, in-range) node?
    pub fn is_live(&self, id: TopicId) -> bool {
        self.nodes.get(id as usize).is_some_and(|n| !n.deleted)
    }

    pub fn name(&self, id: TopicId) -> &str {
        &self.nodes[id as usize].name
    }

    pub fn rename(&mut self, id: TopicId, name: &str) {
        assert!(self.is_live(id));
        self.nodes[id as usize].name = name.to_string();
    }

    pub fn parent(&self, id: TopicId) -> Option<TopicId> {
        self.nodes[id as usize].parent
    }

    /// Live children in insertion order.
    pub fn children(&self, id: TopicId) -> Vec<TopicId> {
        self.nodes[id as usize]
            .children
            .iter()
            .copied()
            .filter(|&c| self.is_live(c))
            .collect()
    }

    /// `/`-joined path from the root (root itself renders as "/").
    pub fn path(&self, id: TopicId) -> String {
        let mut parts = Vec::new();
        let mut cur = Some(id);
        while let Some(c) = cur {
            if c != Self::ROOT {
                parts.push(self.name(c).to_string());
            }
            cur = self.parent(c);
        }
        parts.reverse();
        if parts.is_empty() {
            "/".to_string()
        } else {
            format!("/{}", parts.join("/"))
        }
    }

    /// All live node ids in pre-order.
    pub fn all_topics(&self) -> Vec<TopicId> {
        let mut out = Vec::new();
        self.preorder(Self::ROOT, &mut out);
        out
    }

    fn preorder(&self, id: TopicId, out: &mut Vec<TopicId>) {
        if !self.is_live(id) {
            return;
        }
        out.push(id);
        for c in self.children(id) {
            self.preorder(c, out);
        }
    }

    /// Live leaves (no live children), pre-order. The root counts as a leaf
    /// only when it is childless.
    pub fn leaves(&self) -> Vec<TopicId> {
        self.all_topics()
            .into_iter()
            .filter(|&t| self.children(t).is_empty())
            .collect()
    }

    /// `id` and all its live descendants.
    pub fn subtree(&self, id: TopicId) -> Vec<TopicId> {
        let mut out = Vec::new();
        self.preorder(id, &mut out);
        out
    }

    /// Is `anc` an ancestor of (or equal to) `id`?
    pub fn is_ancestor_or_self(&self, anc: TopicId, id: TopicId) -> bool {
        let mut cur = Some(id);
        while let Some(c) = cur {
            if c == anc {
                return true;
            }
            cur = self.parent(c);
        }
        false
    }

    /// Depth of `id` (root = 0).
    pub fn depth(&self, id: TopicId) -> usize {
        let mut d = 0;
        let mut cur = self.parent(id);
        while let Some(c) = cur {
            d += 1;
            cur = self.parent(c);
        }
        d
    }

    /// Move `id` (with its subtree) under `new_parent` — the cut/paste
    /// operation of the folder tab. Refused (`false`, nothing changes) for
    /// the root, for a deleted topic on either side, and for a move that
    /// would create a cycle.
    pub fn reparent(&mut self, id: TopicId, new_parent: TopicId) -> bool {
        if !(self.is_live(id) && self.is_live(new_parent))
            || self.is_ancestor_or_self(id, new_parent)
        {
            return false;
        }
        let Some(old_parent) = self.parent(id) else {
            return false; // the root
        };
        self.nodes[old_parent as usize]
            .children
            .retain(|&c| c != id);
        self.nodes[new_parent as usize].children.push(id);
        self.nodes[id as usize].parent = Some(new_parent);
        true
    }

    /// Soft-delete `id` and its subtree.
    pub fn remove(&mut self, id: TopicId) {
        assert!(id != Self::ROOT, "cannot delete the root");
        for t in self.subtree(id) {
            self.nodes[t as usize].deleted = true;
        }
    }

    /// Number of live topics (including the root).
    pub fn len(&self) -> usize {
        self.nodes.iter().filter(|n| !n.deleted).count()
    }

    pub fn is_empty(&self) -> bool {
        false // the root always exists
    }

    /// Bytes the tree holds on the heap: its nodes, their names and their
    /// child lists.
    pub fn heap_bytes(&self) -> usize {
        let own = |n: &Node| n.name.capacity() + n.children.capacity() * size_of::<TopicId>();
        self.nodes.capacity() * size_of::<Node>() + self.nodes.iter().map(own).sum::<usize>()
    }

    /// Lowest common ancestor of two live nodes.
    pub fn lca(&self, a: TopicId, b: TopicId) -> TopicId {
        let mut ancestors = HashMap::new();
        let mut cur = Some(a);
        while let Some(c) = cur {
            ancestors.insert(c, ());
            cur = self.parent(c);
        }
        let mut cur = Some(b);
        while let Some(c) = cur {
            if ancestors.contains_key(&c) {
                return c;
            }
            cur = self.parent(c);
        }
        Self::ROOT
    }

    /// Tree distance between nodes (edges via the LCA).
    pub fn distance(&self, a: TopicId, b: TopicId) -> usize {
        let l = self.lca(a, b);
        self.depth(a) + self.depth(b) - 2 * self.depth(l)
    }

    /// Structural invariants (used by property tests): parent/child links
    /// mirror each other, no cycles, exactly one root.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (i, n) in self.nodes.iter().enumerate() {
            let id = i as TopicId;
            if n.deleted {
                continue;
            }
            match n.parent {
                None if id != Self::ROOT => return Err(format!("non-root {id} has no parent")),
                Some(p) => {
                    if !self.is_live(p) {
                        return Err(format!("{id} has dead parent {p}"));
                    }
                    if !self.nodes[p as usize].children.contains(&id) {
                        return Err(format!("{p} does not list child {id}"));
                    }
                }
                None => {}
            }
            for &c in &n.children {
                if self.is_live(c) && self.nodes[c as usize].parent != Some(id) {
                    return Err(format!("child {c} of {id} points elsewhere"));
                }
            }
        }
        // Acyclicity: every node must reach the root.
        for i in 0..self.nodes.len() {
            let id = i as TopicId;
            if !self.is_live(id) {
                continue;
            }
            let mut steps = 0;
            let mut cur = Some(id);
            while let Some(c) = cur {
                if c == Self::ROOT {
                    break;
                }
                cur = self.parent(c);
                steps += 1;
                if steps > self.nodes.len() {
                    return Err(format!("cycle reachable from {id}"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn music_tax() -> (Taxonomy, TopicId, TopicId, TopicId) {
        let mut t = Taxonomy::new();
        let music = t.add_child(Taxonomy::ROOT, "Music");
        let classical = t.add_child(music, "Western Classical");
        let cycling = t.add_child(Taxonomy::ROOT, "Cycling");
        (t, music, classical, cycling)
    }

    #[test]
    fn paths_render_like_the_screenshots() {
        let (t, _, classical, _) = music_tax();
        assert_eq!(t.path(classical), "/Music/Western Classical");
        assert_eq!(t.path(Taxonomy::ROOT), "/");
    }

    #[test]
    fn add_path_reuses_existing_components() {
        let (mut t, music, classical, _) = music_tax();
        let again = t.add_path(&["Music", "Western Classical"]);
        assert_eq!(again, classical);
        let jazz = t.add_path(&["Music", "Jazz"]);
        assert_eq!(t.parent(jazz), Some(music));
        assert_eq!(t.children(music).len(), 2);
    }

    #[test]
    fn subtree_leaves_depth() {
        let (t, music, classical, cycling) = music_tax();
        assert_eq!(t.subtree(music), vec![music, classical]);
        assert_eq!(t.leaves(), vec![classical, cycling]);
        assert_eq!(t.depth(classical), 2);
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn lca_and_distance() {
        let (t, music, classical, cycling) = music_tax();
        assert_eq!(t.lca(classical, cycling), Taxonomy::ROOT);
        assert_eq!(t.lca(classical, music), music);
        assert_eq!(t.distance(classical, cycling), 3);
        assert_eq!(t.distance(classical, classical), 0);
    }

    #[test]
    fn reparent_cut_paste() {
        let (mut t, music, classical, cycling) = music_tax();
        assert!(t.reparent(classical, cycling));
        assert_eq!(t.path(classical), "/Cycling/Western Classical");
        assert!(t.children(music).is_empty());
        t.check_invariants().unwrap();
    }

    #[test]
    fn reparent_rejects_cycles() {
        let (mut t, music, classical, cycling) = music_tax();
        assert!(!t.reparent(music, classical), "a topic under its own child");
        assert!(!t.reparent(music, music));
        assert!(!t.reparent(Taxonomy::ROOT, cycling), "the root stays put");
        assert_eq!(t.path(classical), "/Music/Western Classical");
        assert_eq!(t.parent(music), Some(Taxonomy::ROOT));
        t.check_invariants().unwrap();
    }

    #[test]
    fn remove_soft_deletes_subtree() {
        let (mut t, music, classical, cycling) = music_tax();
        t.remove(music);
        assert!(!t.is_live(music));
        assert!(!t.is_live(classical));
        assert!(t.is_live(cycling));
        assert_eq!(t.len(), 2);
        t.check_invariants().unwrap();
    }

    #[test]
    fn ancestor_queries() {
        let (t, music, classical, cycling) = music_tax();
        assert!(t.is_ancestor_or_self(music, classical));
        assert!(t.is_ancestor_or_self(classical, classical));
        assert!(!t.is_ancestor_or_self(classical, music));
        assert!(!t.is_ancestor_or_self(cycling, classical));
        assert!(t.is_ancestor_or_self(Taxonomy::ROOT, cycling));
    }
}
