//! **F4 — Figure 4, theme discovery:** "Memex computes, from the
//! document-folder associations of multiple users, a topic taxonomy
//! specifically tailored for the interests of that user population …
//! refining topics where needed and coarsening where possible." §4 adds
//! that universal hierarchies (Yahoo!/ODP) "are neither necessary nor
//! sufficient … too specialized in most topics, and not sufficiently
//! specialized in the areas in which the community is deeply interested."
//!
//! We compare, on the community's bookmarked documents, the MDL-style
//! description cost and ground-truth NMI of four organisations:
//! per-user folders as-is, the discovered community themes, and two
//! "universal directory" stand-ins (an over-specialised fine one and an
//! under-specialised coarse one, built *without* looking at the
//! community).

use std::collections::HashMap;

use crate::quality::{nmi, partition_cost};
use memex_cluster::kmeans::KMeans;
use memex_text::vector::SparseVec;

use crate::table::{f3, Table};
use crate::worlds::standard_world;

/// Model cost per class. One unit ≈ the misfit of four averagely-fitting
/// documents, which is roughly what describing a theme signature costs;
/// the qualitative ordering is stable across a wide alpha range (see the
/// ablation rows the harness prints).
const ALPHA: f64 = 1.0;

/// The F4 table.
pub fn run(quick: bool) -> Table {
    let (corpus, _community, memex) = standard_world(quick, 44);
    let (themes, doc_pages) = memex.community_themes().clone();
    let docs: Vec<SparseVec> = doc_pages
        .iter()
        .map(|&p| memex.page_vector(p).unwrap_or_default())
        .collect();
    let truth: Vec<usize> = doc_pages.iter().map(|&p| corpus.topic_of(p)).collect();

    // (a) per-user folders: each (user, folder) is its own class.
    let mut folder_label: HashMap<usize, usize> = HashMap::new();
    {
        let mut groups: HashMap<(u32, String), usize> = HashMap::new();
        for b in &memex.server.bookmarks {
            let next = groups.len();
            let g = *groups.entry((b.user, b.folder.clone())).or_insert(next);
            let doc = doc_pages
                .iter()
                .position(|&p| p == b.page)
                .expect("bookmarked doc");
            folder_label.entry(doc).or_insert(g);
        }
    }
    let user_labels: Vec<usize> = (0..docs.len()).map(|d| folder_label[&d]).collect();

    // (b) community themes.
    let mut node_label: HashMap<u32, usize> = HashMap::new();
    let theme_labels: Vec<usize> = themes
        .doc_theme
        .iter()
        .map(|t| {
            let node = t.expect("every bookmarked doc has a theme");
            let next = node_label.len();
            *node_label.entry(node).or_insert(next)
        })
        .collect();

    // (c) universal directories: global k-means over ALL corpus pages
    // (community-agnostic), fine and coarse.
    let analyzed = corpus.analyze();
    let universal = |k: usize, seed: u64| -> Vec<usize> {
        let mut km = KMeans::new(k);
        km.seed = seed;
        let model = km.run(&analyzed.tfidf, None);
        docs.iter()
            .map(|d| {
                let mut v = d.clone();
                v.normalize();
                model
                    .centroids
                    .iter()
                    .enumerate()
                    .map(|(c, cen)| (c, v.dot(cen)))
                    .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(c, _)| c)
                    .unwrap_or(0)
            })
            .collect()
    };
    let fine = universal(corpus.config.num_topics * 3, 7);
    let coarse = universal((corpus.config.num_topics / 2).max(2), 7);

    let mut table = Table::new(
        "F4: organising the community's bookmarks — description cost and fit",
        &[
            "organisation",
            "classes",
            "description cost",
            "NMI vs truth",
        ],
    );
    let mut add = |name: &str, labels: &[usize]| {
        let k = labels
            .iter()
            .collect::<std::collections::HashSet<_>>()
            .len();
        table.row(vec![
            name.to_string(),
            k.to_string(),
            f3(partition_cost(&docs, labels, ALPHA)),
            f3(nmi(labels, &truth)),
        ]);
    };
    add("per-user folders (no sharing)", &user_labels);
    add("community themes (ours)", &theme_labels);
    add("universal directory, fine (3x topics)", &fine);
    add("universal directory, coarse (topics/2)", &coarse);
    table.note(&format!(
        "theme discovery performed {} merges, {} refinements, {} coarsenings",
        themes.merges, themes.refines, themes.coarsens
    ));
    table.note(
        "paper (Fig. 4): themes capture common factors, keep individuality; beat universal trees",
    );
    table
}
