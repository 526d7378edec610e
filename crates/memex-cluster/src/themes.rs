//! Theme discovery (Fig. 4): "Memex computes, from the document-folder
//! associations of multiple users, a topic taxonomy specifically tailored
//! for the interests of that user population. The taxonomy consists of
//! themes which capture common factors in people's interests when they
//! can, while maintaining individuality when they must."
//!
//! The algorithm, driven by an MDL-style description cost — `alpha` per
//! theme plus each document's misfit `1 − cos` to its theme's centroid:
//!
//! 1. **Seed** one candidate theme per user folder (centroid of its docs).
//! 2. **Merge** — greedily merge the most-similar theme pair across users
//!    while their centroid cosine clears `merge_threshold` *and* the merge
//!    does not increase the description cost: common factors pool, niche
//!    folders survive untouched (individuality).
//! 3. **Refine** — a theme whose internal cohesion is poor and whose
//!    support is large is split with spherical 2-means into child themes
//!    ("refining topics where needed").
//! 4. **Coarsen** — a leaf theme with too little support folds into its
//!    most similar sibling ("coarsening where possible").
//!
//! The result is a [`Taxonomy`] of themes plus doc/folder→theme maps; user
//! profiles over these nodes feed collaborative recommendation (T5).
//!
//! What a step does not change is not recomputed: the merge loop keeps each
//! candidate's unit centroid, the norm of its sum and the cosine of every
//! candidate pair, and after a merge recomputes the merged candidate's row
//! only; refinement's 2-means and leaf routing ([`LeafRouter`]) assign
//! through an inverted list of the centroids; folder and cluster sums go
//! through a dense accumulator; the candidates' pairwise cosines and each
//! theme's cohesion scatter one operand into a dense scratch
//! ([`DotScratch`]) and walk the other. Each is the float operations of the plain
//! version in the same order — the same pairs enumerated and stably sorted,
//! the same misfit test — so the merge sequence, the taxonomy and every
//! centroid bit are those of recomputing everything per step
//! (`tests/prop.rs` keeps that version as the reference).

use std::collections::{BTreeMap, HashMap};

use memex_learn::taxonomy::{Taxonomy, TopicId};
use memex_text::vector::{DotScratch, SparseVec, SumAccumulator};

use crate::kmeans::KMeans;
use crate::nearest::CentroidIndex;

/// One user's folder with the documents they filed in it.
#[derive(Debug, Clone)]
pub struct UserFolder {
    pub user: u32,
    pub name: String,
    /// Indices into the shared document array.
    pub docs: Vec<usize>,
}

/// Tuning for theme discovery.
#[derive(Debug, Clone, Copy)]
pub struct ThemeOptions {
    /// Minimum centroid cosine for a cross-folder merge.
    pub merge_threshold: f32,
    /// Refine a theme whose mean doc-to-centroid cosine is below this...
    pub cohesion_threshold: f32,
    /// ...and which holds at least `2 * min_support` documents.
    pub min_support: usize,
    /// Maximum refinement depth below the first theme level.
    pub max_refine_depth: usize,
    /// Model cost per theme in the MDL objective: a merge is accepted only
    /// when the data misfit it adds stays below this saving.
    pub alpha: f64,
    pub seed: u64,
}

impl Default for ThemeOptions {
    fn default() -> Self {
        ThemeOptions {
            // High enough that shared *topical* vocabulary is needed to
            // merge — web pages share plenty of navigational chrome terms
            // that sit around cosine 0.2–0.4 across topics.
            merge_threshold: 0.5,
            // Scale note: two orthogonal topics mixed half/half give a mean
            // doc-to-centroid cosine of ~0.71, a tight single topic ~0.95+;
            // 0.72 separates those regimes.
            cohesion_threshold: 0.72,
            min_support: 3,
            max_refine_depth: 2,
            alpha: 1.0,
            seed: 0xC0FFEE,
        }
    }
}

/// A discovered theme (taxonomy node with content).
#[derive(Debug, Clone)]
pub struct Theme {
    pub topic: TopicId,
    pub centroid: SparseVec,
    pub docs: Vec<usize>,
    /// Users whose folders contributed.
    pub users: Vec<u32>,
    /// Indices of contributing input folders.
    pub source_folders: Vec<usize>,
}

/// Output of theme discovery.
#[derive(Debug, Clone)]
pub struct Themes {
    pub taxonomy: Taxonomy,
    pub themes: Vec<Theme>,
    /// Per input document: its theme's taxonomy node (None = unfiled).
    pub doc_theme: Vec<Option<TopicId>>,
    /// Per input folder: the theme node it was absorbed into.
    pub folder_theme: Vec<TopicId>,
    /// Count of merge / refine / coarsen operations performed (reported by
    /// the F4 experiment).
    pub merges: usize,
    pub refines: usize,
    pub coarsens: usize,
}

impl Themes {
    /// The *leaf* themes — the ones new documents are routed to — in
    /// `themes` order.
    pub fn leaf_themes(&self) -> Vec<&Theme> {
        self.themes
            .iter()
            .filter(|t| self.taxonomy.children(t.topic).is_empty())
            .collect()
    }

    /// Assign a new document vector to its nearest *leaf* theme; among
    /// equally near ones the last. One sorted merge per leaf: the plain form
    /// [`LeafRouter`] is held to (`core/tests/demons.rs` routes every page
    /// through this one).
    pub fn assign(&self, doc: &SparseVec) -> Option<TopicId> {
        let mut doc = doc.clone();
        doc.normalize();
        self.leaf_themes()
            .iter()
            .map(|t| (t.topic, doc.dot(&t.centroid)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(topic, _)| topic)
    }

    /// [`Themes::assign`] for a caller routing many documents: the leaves
    /// are listed and their centroids inverted once.
    pub fn leaf_router(&self) -> LeafRouter {
        let leaves = self.leaf_themes();
        LeafRouter {
            topics: leaves.iter().map(|t| t.topic).collect(),
            index: CentroidIndex::new(&leaves.iter().map(|t| &t.centroid).collect::<Vec<_>>()),
        }
    }
}

/// Routes documents to the leaf themes of the [`Themes`] it was made from.
pub struct LeafRouter {
    topics: Vec<TopicId>,
    index: CentroidIndex,
}

impl LeafRouter {
    /// What [`Themes::assign`] answers for `doc`.
    pub fn assign(&self, mut doc: SparseVec) -> Option<TopicId> {
        doc.normalize();
        Some(self.topics[self.index.nearest(&doc)?])
    }
}

/// Cosine similarity between two theme profiles (sparse maps over nodes).
/// The maps are ordered so the float sums are taken in node order: two
/// archives fed the same writes score bit-identically.
pub fn profile_similarity(a: &BTreeMap<TopicId, f64>, b: &BTreeMap<TopicId, f64>) -> f64 {
    let dot: f64 = a
        .iter()
        .filter_map(|(k, va)| b.get(k).map(|vb| va * vb))
        .sum();
    let na: f64 = a.values().map(|v| v * v).sum::<f64>().sqrt();
    let nb: f64 = b.values().map(|v| v * v).sum::<f64>().sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na * nb)
    }
}

/// Internal working cluster during merge.
struct Candidate {
    sum: SparseVec,
    docs: Vec<usize>,
    users: Vec<u32>,
    folders: Vec<usize>,
    names: Vec<String>,
    alive: bool,
}

impl Candidate {
    fn centroid(&self) -> SparseVec {
        let mut c = self.sum.clone();
        c.normalize();
        c
    }
}

/// The theme-discovery algorithm.
pub struct ThemeDiscovery {
    opts: ThemeOptions,
}

impl ThemeDiscovery {
    pub fn new(opts: ThemeOptions) -> ThemeDiscovery {
        ThemeDiscovery { opts }
    }

    /// Run over shared `docs` and all users' `folders`.
    pub fn run(&self, docs: &[SparseVec], folders: &[UserFolder]) -> Themes {
        let normed: Vec<SparseVec> = docs
            .iter()
            .map(|d| {
                let mut v = d.clone();
                v.normalize();
                v
            })
            .collect();
        // 1. Seed candidates from folders.
        let mut cands: Vec<Candidate> = folders
            .iter()
            .enumerate()
            .map(|(fi, f)| {
                let docs: Vec<usize> = f
                    .docs
                    .iter()
                    .copied()
                    .filter(|&d| d < normed.len())
                    .collect();
                Candidate {
                    sum: sum_of(&normed, &docs),
                    docs,
                    users: vec![f.user],
                    folders: vec![fi],
                    names: vec![f.name.clone()],
                    alive: true,
                }
            })
            .collect();
        // 2. Greedy merge: among pairs clearing the similarity threshold,
        // take the most similar whose merge does not raise the MDL cost —
        // i.e. the added data misfit stays below the model cost `alpha`
        // saved by dropping one theme. For unit documents the misfit of a
        // cluster has the closed form `|C| - ||Σd||`, so the misfit a merge
        // adds is just `||s_A|| + ||s_B|| - ||s_A + s_B||`. This is the
        // anti-chaining guard: as themes grow, gluing two of them together
        // costs more, so tight same-topic folders pool while distinct
        // topics stay apart ("individuality when they must").
        //
        // A merge changes one candidate, so what the loop reads of the
        // others — unit centroid, norm of the sum, cosine to every other
        // candidate — is kept, and only the merged candidate's share is
        // recomputed. `sims[i * f + j]` (i < j) is the cosine of candidates
        // i and j, current while both are alive.
        let f = cands.len();
        let mut centroids: Vec<SparseVec> = cands.iter().map(Candidate::centroid).collect();
        let mut norms: Vec<f32> = cands.iter().map(|c| c.sum.norm()).collect();
        let mut sims = vec![0.0f32; f * f];
        // One scratch for every dot of the build, seeding to refinement.
        let mut scratch = DotScratch::default();
        for i in 0..f {
            let row = scratch.scatter(&centroids[i]);
            for j in i + 1..f {
                sims[i * f + j] = row.dot(&centroids[j]);
            }
        }
        let mut merges = 0usize;
        loop {
            let alive: Vec<usize> = (0..f).filter(|&i| cands[i].alive).collect();
            let mut scored: Vec<(usize, usize, f32)> = Vec::new();
            for (ai, &i) in alive.iter().enumerate() {
                for &j in &alive[ai + 1..] {
                    let sim = sims[i * f + j];
                    if sim >= self.opts.merge_threshold {
                        scored.push((i, j, sim));
                    }
                }
            }
            scored.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal));
            let chosen = scored.iter().find(|&&(i, j, _)| {
                let mut merged = cands[i].sum.clone();
                merged.add_assign(&cands[j].sum);
                let added_misfit =
                    f64::from(norms[i]) + f64::from(norms[j]) - f64::from(merged.norm());
                added_misfit < self.opts.alpha
            });
            // `scored` pairs are (lower, higher): the lower one absorbs.
            let Some(&(lo, hi, _)) = chosen else { break };
            let (head, tail) = cands.split_at_mut(hi);
            let (a, b) = (&mut head[lo], &mut tail[0]);
            a.sum.add_assign(&b.sum);
            a.docs.append(&mut b.docs);
            a.users.append(&mut b.users);
            a.folders.append(&mut b.folders);
            a.names.append(&mut b.names);
            b.alive = false;
            merges += 1;
            centroids[lo] = cands[lo].centroid();
            norms[lo] = cands[lo].sum.norm();
            let row = scratch.scatter(&centroids[lo]);
            for &other in alive.iter().filter(|&&x| x != lo && x != hi) {
                let (i, j) = (other.min(lo), other.max(lo));
                sims[i * f + j] = row.dot(&centroids[other]);
            }
        }
        // 3. Build the taxonomy: one node per surviving candidate.
        let mut taxonomy = Taxonomy::new();
        let mut themes: Vec<Theme> = Vec::new();
        let mut doc_theme: Vec<Option<TopicId>> = vec![None; docs.len()];
        let mut folder_theme: Vec<TopicId> = vec![Taxonomy::ROOT; folders.len()];
        let mut refines = 0usize;
        let mut coarsens = 0usize;
        for cand in cands.iter().filter(|c| c.alive) {
            let name = majority_name(&cand.names);
            let node = taxonomy.add_child(Taxonomy::ROOT, &name);
            for &fi in &cand.folders {
                folder_theme[fi] = node;
            }
            // 3a. Refine recursively where cohesion is poor.
            self.place_docs(
                &mut taxonomy,
                &mut themes,
                &mut doc_theme,
                &normed,
                &mut scratch,
                node,
                &name,
                cand,
                0,
                &mut refines,
            );
        }
        // 4. Coarsen: fold under-supported first-level leaves into their
        // most similar sibling.
        let first_level = taxonomy.children(Taxonomy::ROOT);
        for node in first_level {
            if !taxonomy.children(node).is_empty() {
                continue;
            }
            let Some(pos) = themes.iter().position(|t| t.topic == node) else {
                continue;
            };
            if themes[pos].docs.len() >= self.opts.min_support {
                continue;
            }
            // Most similar *other* leaf sibling.
            let centroid = themes[pos].centroid.clone();
            let target = themes
                .iter()
                .enumerate()
                .filter(|(q, t)| {
                    *q != pos
                        && t.topic != node
                        && taxonomy.parent(t.topic) == Some(Taxonomy::ROOT)
                        && taxonomy.children(t.topic).is_empty()
                })
                .map(|(q, t)| (q, centroid.dot(&t.centroid)))
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
            if let Some((q, _)) = target {
                let absorbed = themes[pos].clone();
                let tgt_topic = themes[q].topic;
                for &d in &absorbed.docs {
                    doc_theme[d] = Some(tgt_topic);
                }
                for fi in &absorbed.source_folders {
                    folder_theme[*fi] = tgt_topic;
                }
                {
                    let tgt = &mut themes[q];
                    tgt.docs.extend(absorbed.docs.iter().copied());
                    tgt.users.extend(absorbed.users.iter().copied());
                    tgt.source_folders
                        .extend(absorbed.source_folders.iter().copied());
                    let mut sum = tgt.centroid.clone();
                    sum.add_assign(&absorbed.centroid);
                    sum.normalize();
                    tgt.centroid = sum;
                }
                themes.remove(pos);
                taxonomy.remove(node);
                coarsens += 1;
            }
        }
        for t in &mut themes {
            t.users.sort_unstable();
            t.users.dedup();
        }
        Themes {
            taxonomy,
            themes,
            doc_theme,
            folder_theme,
            merges,
            refines,
            coarsens,
        }
    }

    /// Place a candidate's docs under `node`, refining by 2-means when the
    /// theme is big and loose.
    #[allow(clippy::too_many_arguments)]
    fn place_docs(
        &self,
        taxonomy: &mut Taxonomy,
        themes: &mut Vec<Theme>,
        doc_theme: &mut [Option<TopicId>],
        normed: &[SparseVec],
        scratch: &mut DotScratch,
        node: TopicId,
        name: &str,
        cand: &Candidate,
        depth: usize,
        refines: &mut usize,
    ) {
        let centroid = cand.centroid();
        let cohesion = if cand.docs.is_empty() {
            1.0
        } else {
            let row = scratch.scatter(&centroid);
            cand.docs.iter().map(|&d| row.dot(&normed[d])).sum::<f32>() / cand.docs.len() as f32
        };
        let should_refine = depth < self.opts.max_refine_depth
            && cand.docs.len() >= 2 * self.opts.min_support
            && cohesion < self.opts.cohesion_threshold;
        if should_refine {
            let subset: Vec<SparseVec> = cand.docs.iter().map(|&d| normed[d].clone()).collect();
            let mut km = KMeans::new(2);
            km.seed = self.opts.seed ^ (node as u64);
            let result = km.run(&subset, None);
            // Both halves non-trivial? Otherwise refinement is pointless.
            let count0 = result.labels.iter().filter(|&&l| l == 0).count();
            if count0 >= self.opts.min_support && subset.len() - count0 >= self.opts.min_support {
                *refines += 1;
                for half in 0..2usize {
                    let child_name = format!("{name}#{}", half + 1);
                    let child = taxonomy.add_child(node, &child_name);
                    let docs: Vec<usize> = cand
                        .docs
                        .iter()
                        .zip(&result.labels)
                        .filter(|&(_, &l)| l == half)
                        .map(|(&d, _)| d)
                        .collect();
                    let sub = Candidate {
                        sum: sum_of(normed, &docs),
                        docs,
                        users: cand.users.clone(),
                        folders: Vec::new(),
                        names: vec![child_name.clone()],
                        alive: true,
                    };
                    self.place_docs(
                        taxonomy,
                        themes,
                        doc_theme,
                        normed,
                        scratch,
                        child,
                        &child_name,
                        &sub,
                        depth + 1,
                        refines,
                    );
                }
                return;
            }
        }
        for &d in &cand.docs {
            doc_theme[d] = Some(node);
        }
        themes.push(Theme {
            topic: node,
            centroid,
            docs: cand.docs.clone(),
            users: cand.users.clone(),
            source_folders: cand.folders.clone(),
        });
    }
}

/// Sum of the documents `docs` of `normed`, added in that order.
fn sum_of(normed: &[SparseVec], docs: &[usize]) -> SparseVec {
    let mut acc = SumAccumulator::default();
    for &d in docs {
        acc.add(&normed[d]);
    }
    acc.take()
}

/// Most frequent name, ties broken lexicographically.
fn majority_name(names: &[String]) -> String {
    let mut counts: HashMap<&str, usize> = HashMap::new();
    for n in names {
        *counts.entry(n.as_str()).or_insert(0) += 1;
    }
    counts
        .into_iter()
        .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(a.0)))
        .map(|(n, _)| n.to_string())
        .unwrap_or_else(|| "theme".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(pairs: &[(u32, f32)]) -> SparseVec {
        SparseVec::from_pairs(pairs.to_vec())
    }

    /// Three users: two share a "music" interest (same term subspace),
    /// one has a private "orchids" niche.
    fn community() -> (Vec<SparseVec>, Vec<UserFolder>) {
        let mut docs = Vec::new();
        // Docs 0..4: music docs (terms 1,2).
        for j in 0..5u32 {
            docs.push(v(&[(1, 2.0), (2, 1.0 + 0.1 * j as f32)]));
        }
        // Docs 5..9: more music docs (same subspace).
        for j in 0..5u32 {
            docs.push(v(&[(1, 1.5), (2, 1.2 + 0.1 * j as f32)]));
        }
        // Docs 10..13: orchids (term 30,31).
        for j in 0..4u32 {
            docs.push(v(&[(30, 2.0), (31, 1.0 + 0.1 * j as f32)]));
        }
        let folders = vec![
            UserFolder {
                user: 1,
                name: "Music".into(),
                docs: vec![0, 1, 2, 3, 4],
            },
            UserFolder {
                user: 2,
                name: "Tunes".into(),
                docs: vec![5, 6, 7, 8, 9],
            },
            UserFolder {
                user: 3,
                name: "Orchids".into(),
                docs: vec![10, 11, 12, 13],
            },
        ];
        (docs, folders)
    }

    #[test]
    fn merges_shared_interests_keeps_niches() {
        let (docs, folders) = community();
        let themes = ThemeDiscovery::new(ThemeOptions::default()).run(&docs, &folders);
        assert_eq!(themes.merges, 1, "music folders merge once");
        // Two first-level themes: merged music + orchids niche.
        let first = themes.taxonomy.children(Taxonomy::ROOT);
        assert_eq!(first.len(), 2);
        // The music theme has both users.
        let music = themes
            .themes
            .iter()
            .find(|t| t.users.len() == 2)
            .expect("a two-user theme must exist");
        assert_eq!(music.docs.len(), 10);
        // Folder mapping: folders 0 and 1 land on the same node.
        assert_eq!(themes.folder_theme[0], themes.folder_theme[1]);
        assert_ne!(themes.folder_theme[0], themes.folder_theme[2]);
        themes.taxonomy.check_invariants().unwrap();
    }

    #[test]
    fn refines_an_incoherent_folder() {
        // One user dumped two unrelated topics into a single "Stuff" folder.
        let mut docs = Vec::new();
        for j in 0..6u32 {
            docs.push(v(&[(1, 2.0), (2, 0.5 + 0.05 * j as f32)]));
        }
        for j in 0..6u32 {
            docs.push(v(&[(50, 2.0), (51, 0.5 + 0.05 * j as f32)]));
        }
        let folders = vec![UserFolder {
            user: 1,
            name: "Stuff".into(),
            docs: (0..12).collect(),
        }];
        let themes = ThemeDiscovery::new(ThemeOptions::default()).run(&docs, &folders);
        assert!(themes.refines >= 1, "mixed folder must be refined");
        // Documents of the two subspaces land under different leaves.
        let t0 = themes.doc_theme[0].unwrap();
        let t6 = themes.doc_theme[6].unwrap();
        assert_ne!(t0, t6);
        // Both leaves share the "Stuff" parent.
        assert_eq!(themes.taxonomy.parent(t0), themes.taxonomy.parent(t6));
        themes.taxonomy.check_invariants().unwrap();
    }

    #[test]
    fn coarsens_tiny_themes() {
        let mut docs = Vec::new();
        for j in 0..6u32 {
            docs.push(v(&[(1, 2.0), (2, 0.5 + 0.1 * j as f32)]));
        }
        // A lone doc in a similar-but-not-identical subspace.
        docs.push(v(&[(2, 1.0), (3, 0.4)]));
        let folders = vec![
            UserFolder {
                user: 1,
                name: "Music".into(),
                docs: (0..6).collect(),
            },
            UserFolder {
                user: 2,
                name: "Stray".into(),
                docs: vec![6],
            },
        ];
        let opts = ThemeOptions {
            merge_threshold: 0.9,
            ..Default::default()
        };
        let themes = ThemeDiscovery::new(opts).run(&docs, &folders);
        assert_eq!(themes.coarsens, 1, "stray folder folds into its sibling");
        assert_eq!(themes.taxonomy.children(Taxonomy::ROOT).len(), 1);
        assert_eq!(themes.doc_theme[6], themes.doc_theme[0]);
    }

    #[test]
    fn profile_similarity_is_cosine_over_shared_nodes() {
        let profile = |w: &[(TopicId, f64)]| w.iter().copied().collect::<BTreeMap<_, _>>();
        let u1 = profile(&[(1, 1.0), (2, 0.6), (3, 0.4)]);
        let u2 = profile(&[(1, 1.0), (2, 0.5), (3, 0.5)]);
        let u3 = profile(&[(4, 1.0), (5, 1.0)]);
        assert!(profile_similarity(&u1, &u2) > 0.9);
        assert_eq!(profile_similarity(&u1, &u3), 0.0, "no shared node");
        assert!((profile_similarity(&u1, &u1) - 1.0).abs() < 1e-12);
        assert_eq!(profile_similarity(&u1, &BTreeMap::new()), 0.0);
    }

    #[test]
    fn assign_routes_new_docs_to_leaf_themes() {
        let (docs, folders) = community();
        let themes = ThemeDiscovery::new(ThemeOptions::default()).run(&docs, &folders);
        let new_music = v(&[(1, 1.0), (2, 1.0)]);
        let assigned = themes.assign(&new_music).unwrap();
        let music_node = themes.folder_theme[0];
        assert!(themes.taxonomy.is_ancestor_or_self(music_node, assigned));
    }

    #[test]
    fn empty_inputs() {
        let themes = ThemeDiscovery::new(ThemeOptions::default()).run(&[], &[]);
        assert!(themes.themes.is_empty());
        assert_eq!(themes.taxonomy.len(), 1);
    }
}
