//! Property tests for the clustering substrate: HAC cuts are proper
//! partitions and k-means output is well-formed and deterministic.
//!
//! Theme discovery and k-means are also held, bit for bit, to what they
//! computed before they kept anything between steps: [`reference`] is the
//! merge loop that recomputed every centroid and every pairwise cosine per
//! iteration, and the k-means that merged every document against every
//! centroid and folded each cluster's sum one sorted merge at a time.

use proptest::prelude::*;

use memex_cluster::hac::{hac_cut, Hac};
use memex_cluster::kmeans::{KMeans, KMeansResult};
use memex_cluster::nearest::CentroidIndex;
use memex_cluster::scatter::buckshot;
use memex_cluster::themes::{ThemeDiscovery, ThemeOptions, Themes, UserFolder};
use memex_text::vector::SparseVec;

fn docs_strategy(max_docs: usize) -> impl Strategy<Value = Vec<SparseVec>> {
    proptest::collection::vec(
        proptest::collection::vec((0u32..24, 0.1f32..5.0), 1..6).prop_map(SparseVec::from_pairs),
        1..max_docs,
    )
}

/// A document of one of four topics (six terms each, weights from a short
/// list so that equal cosines are common), now and then with a stray term.
fn topical_doc() -> impl Strategy<Value = SparseVec> {
    let weight = prop_oneof![Just(0.5f32), Just(1.0f32), Just(2.0f32)];
    (
        0u32..4,
        proptest::collection::vec((0u32..6, weight), 1..5),
        prop_oneof![3 => Just(None), 1 => (24u32..30, 0.1f32..1.0).prop_map(Some)],
    )
        .prop_map(|(topic, terms, stray)| {
            let mut pairs: Vec<(u32, f32)> =
                terms.into_iter().map(|(t, w)| (topic * 6 + t, w)).collect();
            pairs.extend(stray);
            SparseVec::from_pairs(pairs)
        })
}

/// Folders over `docs` documents: empty ones, ones naming documents that do
/// not exist or naming one twice, and — `repeat` — ones that file exactly
/// what the folder before them filed, so that candidate pairs tie.
fn folders_strategy(docs: usize) -> impl Strategy<Value = Vec<UserFolder>> {
    let folder = (
        0u32..5,
        0u32..4,
        proptest::collection::vec(0..docs + 3, 0..8),
        0u32..4,
    );
    proptest::collection::vec(folder, 0..10).prop_map(|raw| {
        let mut folders: Vec<UserFolder> = Vec::new();
        for (user, name, docs, repeat) in raw {
            let docs = match folders.last() {
                Some(previous) if repeat == 0 => previous.docs.clone(),
                _ => docs,
            };
            folders.push(UserFolder {
                user,
                name: format!("folder{name}"),
                docs,
            });
        }
        folders
    })
}

fn theme_options() -> impl Strategy<Value = ThemeOptions> {
    (
        prop_oneof![Just(0.0f32), Just(0.3f32), Just(0.5f32), Just(0.9f32)],
        prop_oneof![Just(0.72f32), Just(0.999f32)],
        1usize..4,
        0usize..3,
        prop_oneof![Just(0.2f64), Just(1.0f64), Just(5.0f64)],
        any::<u64>(),
    )
        .prop_map(
            |(merge_threshold, cohesion_threshold, min_support, max_refine_depth, alpha, seed)| {
                ThemeOptions {
                    merge_threshold,
                    cohesion_threshold,
                    min_support,
                    max_refine_depth,
                    alpha,
                    seed,
                }
            },
        )
}

/// A vector holding most of twenty terms: two of them share enough terms
/// that the order their products are added in shows in the sum's last bits.
fn dense_vec() -> impl Strategy<Value = SparseVec> {
    proptest::collection::vec((0u32..20, 0.1f32..5.0), 0..40).prop_map(SparseVec::from_pairs)
}

fn vec_bits(v: &SparseVec) -> Vec<(u32, u32)> {
    v.entries().iter().map(|&(t, w)| (t, w.to_bits())).collect()
}

fn assert_same_themes(got: &Themes, want: &Themes) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        (got.merges, got.refines, got.coarsens),
        (want.merges, want.refines, want.coarsens),
        "merges / refines / coarsens"
    );
    prop_assert_eq!(&got.doc_theme, &want.doc_theme);
    prop_assert_eq!(&got.folder_theme, &want.folder_theme);
    prop_assert_eq!(got.themes.len(), want.themes.len());
    for (g, w) in got.themes.iter().zip(&want.themes) {
        prop_assert_eq!(
            (g.topic, &g.docs, &g.users, &g.source_folders),
            (w.topic, &w.docs, &w.users, &w.source_folders)
        );
        prop_assert_eq!(
            vec_bits(&g.centroid),
            vec_bits(&w.centroid),
            "centroid of {}",
            g.topic
        );
    }
    prop_assert_eq!(
        format!("{:?}", got.taxonomy),
        format!("{:?}", want.taxonomy)
    );
    Ok(())
}

fn assert_same_clustering(got: &KMeansResult, want: &KMeansResult) -> Result<(), TestCaseError> {
    prop_assert_eq!(&got.labels, &want.labels);
    prop_assert_eq!(got.iterations, want.iterations);
    let bits = |r: &KMeansResult| r.centroids.iter().map(vec_bits).collect::<Vec<_>>();
    prop_assert_eq!(bits(got), bits(want));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Theme discovery with its kept centroids, norms and similarity matrix
    /// takes the merges the from-scratch loop takes, in the same order, and
    /// ends in the same taxonomy with the same centroids.
    #[test]
    fn theme_discovery_equals_the_from_scratch_loop(
        docs in proptest::collection::vec(topical_doc(), 0..40),
        identical in 0u32..6,
        folders in folders_strategy(40),
        opts in theme_options(),
    ) {
        // One case in six: every document is the same document.
        let docs: Vec<SparseVec> = match docs.first() {
            Some(first) if identical == 0 => vec![first.clone(); docs.len()],
            _ => docs,
        };
        // Folder strategies draw ids up to 42: past the end for most cases.
        let got = ThemeDiscovery::new(opts).run(&docs, &folders);
        let want = reference::theme_discovery(opts, &docs, &folders);
        assert_same_themes(&got, &want)?;
        // A lone folder: nothing to merge, everything else still runs.
        if let Some(lone) = folders.first() {
            let lone = std::slice::from_ref(lone);
            assert_same_themes(
                &ThemeDiscovery::new(opts).run(&docs, lone),
                &reference::theme_discovery(opts, &docs, lone),
            )?;
        }
    }

    /// k-means through the inverted centroid list and the dense accumulator
    /// labels every document as the merge-based body did and ends on the
    /// same centroids — seeded or not, truncated or not, through empty
    /// clusters (duplicate seeds) and ties (duplicate documents).
    #[test]
    fn kmeans_equals_the_merge_based_body(
        docs in docs_strategy(24),
        doubled in any::<bool>(),
        k in 1usize..8,
        centroid_terms in prop_oneof![Just(0usize), Just(2usize), Just(64usize)],
        seed in any::<u64>(),
        seed_picks in proptest::collection::vec(0usize..24, 0..6),
    ) {
        let mut docs = docs;
        if doubled {
            docs.extend(docs.clone());
        }
        let mut km = KMeans::new(k);
        km.centroid_terms = centroid_terms;
        km.seed = seed;
        let seeds: Vec<SparseVec> =
            seed_picks.iter().map(|&i| docs[i % docs.len()].clone()).collect();
        for seeds in [None, Some(seeds)] {
            assert_same_clustering(
                &km.run(&docs, seeds.clone()),
                &reference::kmeans(&km, &docs, seeds),
            )?;
        }
    }

    /// One walk over a document's terms gives its dot product with every
    /// centroid exactly as the sorted merge does: each accumulator adds its
    /// products in ascending term order.
    #[test]
    fn centroid_index_dots_are_the_merge_dots(
        centroids in proptest::collection::vec(dense_vec(), 0..8),
        docs in proptest::collection::vec(dense_vec(), 1..8),
    ) {
        let index = CentroidIndex::new(&centroids.iter().collect::<Vec<_>>());
        for doc in &docs {
            let merged: Vec<u32> = centroids.iter().map(|c| doc.dot(c).to_bits()).collect();
            let indexed: Vec<u32> = index.dots(doc).iter().map(|d| d.to_bits()).collect();
            prop_assert_eq!(indexed, merged);
        }
    }

    /// Cutting a dendrogram at k yields a dense labelling with exactly
    /// min(k, n) clusters, deterministic across runs.
    #[test]
    fn hac_cut_is_a_proper_partition(docs in docs_strategy(24), k in 1usize..10) {
        let labels = hac_cut(&docs, k);
        prop_assert_eq!(labels.len(), docs.len());
        let distinct: std::collections::HashSet<usize> = labels.iter().copied().collect();
        prop_assert_eq!(distinct.len(), k.min(docs.len()));
        // Labels are dense 0..m.
        prop_assert!(distinct.iter().all(|&l| l < distinct.len()));
        // Deterministic.
        prop_assert_eq!(hac_cut(&docs, k), labels);
    }

    /// Coarser cuts refine: merging never splits an existing cluster —
    /// if two docs share a label at k clusters they still do at k-1.
    #[test]
    fn hac_cuts_are_nested(docs in docs_strategy(20), k in 2usize..8) {
        let d = Hac::new(&docs).run();
        let fine = d.cut(k);
        let coarse = d.cut(k - 1);
        for i in 0..docs.len() {
            for j in 0..docs.len() {
                if fine[i] == fine[j] {
                    prop_assert_eq!(coarse[i], coarse[j], "coarsening split {},{}", i, j);
                }
            }
        }
    }

    /// k-means output shape and determinism.
    #[test]
    fn kmeans_wellformed(docs in docs_strategy(24), k in 1usize..8) {
        let result = KMeans::new(k).run(&docs, None);
        prop_assert_eq!(result.labels.len(), docs.len());
        let kk = result.centroids.len();
        prop_assert!(kk <= k.max(1));
        prop_assert!(result.labels.iter().all(|&l| l < kk));
        let again = KMeans::new(k).run(&docs, None);
        prop_assert_eq!(result.labels, again.labels);
        // Centroids are unit or empty.
        for c in &result.centroids {
            let n = c.norm();
            prop_assert!(n == 0.0 || (n - 1.0).abs() < 1e-4);
        }
    }

    /// Buckshot also yields a proper labelling.
    #[test]
    fn buckshot_wellformed(docs in docs_strategy(24), k in 1usize..6, seed in any::<u64>()) {
        let result = buckshot(&docs, k, seed);
        prop_assert_eq!(result.labels.len(), docs.len());
        let kk = result.centroids.len().max(1);
        prop_assert!(result.labels.iter().all(|&l| l < kk));
    }

}

/// Theme discovery and k-means as they were before they kept centroids,
/// norms and similarities between steps: the specification the incremental
/// versions are held to. Not to be tidied towards the crate's code.
mod reference {
    use std::collections::HashMap;

    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    use memex_cluster::kmeans::{KMeans, KMeansResult};
    use memex_cluster::themes::{Theme, ThemeOptions, Themes, UserFolder};
    use memex_learn::taxonomy::{Taxonomy, TopicId};
    use memex_text::vector::SparseVec;

    pub fn kmeans(km: &KMeans, docs: &[SparseVec], seeds: Option<Vec<SparseVec>>) -> KMeansResult {
        let n = docs.len();
        let k = km.k.max(1).min(n.max(1));
        let normed: Vec<SparseVec> = docs
            .iter()
            .map(|d| {
                let mut v = d.clone();
                v.normalize();
                v
            })
            .collect();
        if n == 0 {
            return KMeansResult {
                labels: Vec::new(),
                centroids: Vec::new(),
                iterations: 0,
            };
        }
        let mut centroids: Vec<SparseVec> = match seeds {
            Some(s) if !s.is_empty() => {
                let mut s = s;
                for c in &mut s {
                    c.normalize();
                }
                s.truncate(k);
                s
            }
            _ => {
                let mut rng = StdRng::seed_from_u64(km.seed);
                let mut idx: Vec<usize> = (0..n).collect();
                idx.shuffle(&mut rng);
                idx[..k].iter().map(|&i| normed[i].clone()).collect()
            }
        };
        let k = centroids.len();
        let mut labels = vec![0usize; n];
        let mut iterations = 0usize;
        for it in 0..km.max_iters {
            iterations = it + 1;
            let mut changed = false;
            for (d, doc) in normed.iter().enumerate() {
                let best = centroids
                    .iter()
                    .enumerate()
                    .map(|(c, cen)| (c, doc.dot(cen)))
                    .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(c, _)| c)
                    .unwrap_or(0);
                if labels[d] != best {
                    labels[d] = best;
                    changed = true;
                }
            }
            if it > 0 && !changed {
                break;
            }
            let mut sums: Vec<SparseVec> = vec![SparseVec::new(); k];
            let mut counts = vec![0usize; k];
            for (d, doc) in normed.iter().enumerate() {
                sums[labels[d]].add_assign(doc);
                counts[labels[d]] += 1;
            }
            for (c, sum) in sums.iter_mut().enumerate() {
                if counts[c] == 0 {
                    let worst = normed
                        .iter()
                        .enumerate()
                        .map(|(d, doc)| (doc, doc.dot(&centroids[labels[d]])))
                        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
                    if let Some((doc, _)) = worst {
                        *sum = doc.clone();
                    }
                }
                sum.normalize();
                if km.centroid_terms > 0 {
                    sum.truncate_top(km.centroid_terms);
                    sum.normalize();
                }
            }
            centroids = sums;
        }
        KMeansResult {
            labels,
            centroids,
            iterations,
        }
    }

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

    pub fn theme_discovery(
        opts: ThemeOptions,
        docs: &[SparseVec],
        folders: &[UserFolder],
    ) -> Themes {
        let normed: Vec<SparseVec> = docs
            .iter()
            .map(|d| {
                let mut v = d.clone();
                v.normalize();
                v
            })
            .collect();
        let mut cands: Vec<Candidate> = folders
            .iter()
            .enumerate()
            .map(|(fi, f)| {
                let mut sum = SparseVec::new();
                for &d in &f.docs {
                    if d < normed.len() {
                        sum.add_assign(&normed[d]);
                    }
                }
                Candidate {
                    sum,
                    docs: f
                        .docs
                        .iter()
                        .copied()
                        .filter(|&d| d < normed.len())
                        .collect(),
                    users: vec![f.user],
                    folders: vec![fi],
                    names: vec![f.name.clone()],
                    alive: true,
                }
            })
            .collect();
        let mut merges = 0usize;
        loop {
            let alive: Vec<usize> = (0..cands.len()).filter(|&i| cands[i].alive).collect();
            if alive.len() < 2 {
                break;
            }
            let mut scored: Vec<(usize, usize, f32)> = Vec::new();
            for (ai, &i) in alive.iter().enumerate() {
                let ci = cands[i].centroid();
                for &j in &alive[ai + 1..] {
                    let sim = ci.dot(&cands[j].centroid());
                    if sim >= opts.merge_threshold {
                        scored.push((i, j, sim));
                    }
                }
            }
            scored.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal));
            let mut chosen = None;
            for &(i, j, sim) in &scored {
                let na = cands[i].sum.norm();
                let nb = cands[j].sum.norm();
                let mut merged = cands[i].sum.clone();
                merged.add_assign(&cands[j].sum);
                let added_misfit = f64::from(na) + f64::from(nb) - f64::from(merged.norm());
                if added_misfit < opts.alpha {
                    chosen = Some((i, j, sim));
                    break;
                }
            }
            let Some((i, j, _sim)) = chosen else { break };
            let (lo, hi) = (i.min(j), i.max(j));
            let (head, tail) = cands.split_at_mut(hi);
            let (a, b) = (&mut head[lo], &mut tail[0]);
            a.sum.add_assign(&b.sum);
            a.docs.append(&mut b.docs);
            a.users.append(&mut b.users);
            a.folders.append(&mut b.folders);
            a.names.append(&mut b.names);
            b.alive = false;
            merges += 1;
        }
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
            place_docs(
                &opts,
                &mut taxonomy,
                &mut themes,
                &mut doc_theme,
                &normed,
                node,
                &name,
                cand,
                0,
                &mut refines,
            );
        }
        let first_level = taxonomy.children(Taxonomy::ROOT);
        for node in first_level {
            if !taxonomy.children(node).is_empty() {
                continue;
            }
            let Some(pos) = themes.iter().position(|t| t.topic == node) else {
                continue;
            };
            if themes[pos].docs.len() >= opts.min_support {
                continue;
            }
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

    #[allow(clippy::too_many_arguments)]
    fn place_docs(
        opts: &ThemeOptions,
        taxonomy: &mut Taxonomy,
        themes: &mut Vec<Theme>,
        doc_theme: &mut [Option<TopicId>],
        normed: &[SparseVec],
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
            cand.docs
                .iter()
                .map(|&d| normed[d].dot(&centroid))
                .sum::<f32>()
                / cand.docs.len() as f32
        };
        let should_refine = depth < opts.max_refine_depth
            && cand.docs.len() >= 2 * opts.min_support
            && cohesion < opts.cohesion_threshold;
        if should_refine {
            let subset: Vec<SparseVec> = cand.docs.iter().map(|&d| normed[d].clone()).collect();
            let mut km = KMeans::new(2);
            km.seed = opts.seed ^ (node as u64);
            let result = kmeans(&km, &subset, None);
            let count0 = result.labels.iter().filter(|&&l| l == 0).count();
            if count0 >= opts.min_support && subset.len() - count0 >= opts.min_support {
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
                    let mut sum = SparseVec::new();
                    for &d in &docs {
                        sum.add_assign(&normed[d]);
                    }
                    let sub = Candidate {
                        sum,
                        docs,
                        users: cand.users.clone(),
                        folders: Vec::new(),
                        names: vec![child_name.clone()],
                        alive: true,
                    };
                    place_docs(
                        opts,
                        taxonomy,
                        themes,
                        doc_theme,
                        normed,
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
}
