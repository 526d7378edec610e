//! **T1 — the headline claim (§4):** "For classification we use a new
//! technique that combines features from text, hyperlink and folder
//! placement to offer significantly boosted accuracy, increasing from a
//! mere 40% accuracy for text-only learners to about 80% with our more
//! elaborate model."
//!
//! Setup: interior pages (rich text) are the labelled training set; the
//! bookmark-magnet **front pages** (little text, many links) are the
//! targets. Folder co-placement groups come from the simulated community's
//! bookmark folders, links from the synthetic web. We sweep the front-page
//! topical-text bias: the weaker the text, the wider the gap.

use std::collections::HashMap;

use memex_learn::enhanced::{EnhancedClassifier, EnhancedOptions, EnhancedProblem};
use memex_web::corpus::{Corpus, CorpusConfig};
use memex_web::surfer::{Community, SurferConfig};

use crate::table::{pct, Table};

/// One sweep point's outcome.
#[derive(Debug, Clone, Copy)]
pub struct ClassifyOutcome {
    pub text_only_acc: f64,
    pub enhanced_acc: f64,
    pub targets: usize,
}

/// Run one configuration: front-page text bias plus hyperlink
/// topic-locality (the ablation axis: noisier links weaken the strongest
/// evidence channel).
pub fn run_once(
    front_topic_bias: f64,
    link_locality: f64,
    quick: bool,
    seed: u64,
) -> ClassifyOutcome {
    let corpus = Corpus::generate(CorpusConfig {
        num_topics: if quick { 4 } else { 8 },
        pages_per_topic: if quick { 40 } else { 80 },
        front_topic_bias,
        // Front pages of 2000 were messy hubs: modest fan-out and noisy
        // targets, so link evidence helps a lot but is not a free lunch.
        front_links: (3, 8),
        link_locality,
        seed,
        ..CorpusConfig::default()
    });
    let analyzed = corpus.analyze();
    let community = Community::simulate(
        &corpus,
        &SurferConfig {
            num_users: if quick { 6 } else { 12 },
            sessions_per_user: if quick { 6 } else { 12 },
            bookmark_prob: 0.2,
            seed: seed ^ 0xB00C,
            ..SurferConfig::default()
        },
    );
    // Folder co-placement groups from the community's bookmark folders.
    let mut groups: HashMap<(u32, &str), Vec<usize>> = HashMap::new();
    for b in &community.bookmarks {
        groups
            .entry((b.user, b.folder.as_str()))
            .or_default()
            .push(b.page as usize);
    }
    let mut folders: Vec<Vec<usize>> = groups
        .into_values()
        .map(|mut v| {
            v.sort_unstable();
            v.dedup();
            v
        })
        .filter(|v| v.len() >= 2)
        .collect();
    folders.sort();
    // Labels: a third of the interior pages (the supervision a server
    // would actually have — confirmed bookmark filings); everything else,
    // including every front page, is unlabelled. Targets are the front
    // pages only.
    let labels: Vec<Option<usize>> = corpus
        .pages
        .iter()
        .map(|p| {
            if !p.is_front && p.id % 3 == 0 {
                Some(p.topic)
            } else {
                None
            }
        })
        .collect();
    let problem = EnhancedProblem {
        num_classes: corpus.config.num_topics,
        docs: &analyzed.tf,
        graph: &corpus.graph,
        folders: &folders,
        labels: &labels,
    };
    let result = EnhancedClassifier::new(EnhancedOptions::default()).classify(&problem);
    let mut text_ok = 0usize;
    let mut enh_ok = 0usize;
    let mut targets = 0usize;
    for p in &corpus.pages {
        if !p.is_front {
            continue;
        }
        targets += 1;
        if result.text_only[p.id as usize] == p.topic {
            text_ok += 1;
        }
        if result.predictions[p.id as usize] == p.topic {
            enh_ok += 1;
        }
    }
    ClassifyOutcome {
        text_only_acc: text_ok as f64 / targets.max(1) as f64,
        enhanced_acc: enh_ok as f64 / targets.max(1) as f64,
        targets,
    }
}

/// The full T1 table: sweep the front-page text signal.
pub fn run(quick: bool) -> Table {
    let mut table = Table::new(
        "T1: classification accuracy on bookmarked front pages",
        &[
            "front topic bias",
            "targets",
            "text-only",
            "text+link+folder",
            "lift",
        ],
    );
    let seeds: &[u64] = if quick { &[1] } else { &[1, 2, 3] };
    // (front-text bias, link locality): the first three rows sweep text
    // signal at realistic locality; the last two weaken the link channel.
    let grid: &[(f64, f64)] = &[
        (0.05, 0.75),
        (0.15, 0.75),
        (0.30, 0.75),
        (0.05, 0.6),
        (0.05, 0.5),
    ];
    for &(bias, locality) in grid {
        let mut text = 0.0;
        let mut enh = 0.0;
        let mut targets = 0usize;
        for &s in seeds {
            let o = run_once(bias, locality, quick, s);
            text += o.text_only_acc;
            enh += o.enhanced_acc;
            targets = o.targets;
        }
        let n = seeds.len() as f64;
        table.row(vec![
            format!("{bias:.2} / locality {locality:.2}"),
            targets.to_string(),
            pct(text / n),
            pct(enh / n),
            format!("+{:.1}pp", 100.0 * (enh - text) / n),
        ]);
    }
    table.note("paper: ~40% text-only -> ~80% enhanced on bookmark-like pages");
    table.note("labels: a third of interior pages; targets: front pages (short text, many links)");
    table
}
