//! **F2 — Figure 2, the trail tab:** "When the user selects a folder,
//! Memex replays recently browsed pages which belong to the selected (or
//! contained) topic(s), reminding the user of the latest topical context."
//!
//! Measured: precision/recall of the replayed context against ground-truth
//! topics, and replay latency as the archived history grows.

use std::time::Instant;

use crate::table::{f3, pct, Table};
use crate::worlds::{populated_memex, standard_community, standard_corpus};

/// Replay quality + latency for one world size.
#[derive(Debug, Clone, Copy)]
pub struct TrailOutcome {
    pub visits: usize,
    pub precision: f64,
    pub recall: f64,
    pub latency_ms: f64,
}

/// Run replay for every (user, primary interest) pair and average.
pub fn run_once(quick: bool, sessions_per_user: usize, seed: u64) -> TrailOutcome {
    let corpus = standard_corpus(quick, seed);
    let mut community = standard_community(&corpus, quick, seed ^ 0x77);
    // Override session count to sweep history size.
    community = memex_web::surfer::Community::simulate(
        &corpus,
        &memex_web::surfer::SurferConfig {
            num_users: community.users.len(),
            sessions_per_user,
            seed: seed ^ 0x77,
            ..memex_web::surfer::SurferConfig::default()
        },
    );
    let mut memex = populated_memex(corpus.clone(), &community);
    let mut precision = 0.0;
    let mut recall = 0.0;
    let mut latency = 0.0;
    let mut runs = 0usize;
    for truth in community.users.iter().take(6) {
        let topic = truth.interests[0];
        let folder = {
            let fs = memex.folder_space(truth.user);
            fs.add_folder(&format!("/{}", corpus.topic_names[topic]))
        };
        let start = Instant::now();
        let ctx = memex.topic_context(truth.user, folder, 0, 30);
        latency += start.elapsed().as_secs_f64() * 1e3;
        if ctx.nodes.is_empty() {
            continue;
        }
        let on_topic = ctx
            .nodes
            .iter()
            .filter(|n| corpus.topic_of(n.page) == topic)
            .count();
        precision += on_topic as f64 / ctx.nodes.len() as f64;
        // Recall against the community's recent public on-topic pages
        // (capped at the same budget the replay had).
        let truth_pages: std::collections::HashSet<u32> = memex
            .server
            .trails
            .visits()
            .iter()
            .filter(|v| v.public && corpus.topic_of(v.page) == topic)
            .map(|v| v.page)
            .collect();
        let denominator = truth_pages.len().clamp(1, 30);
        recall += on_topic as f64 / denominator as f64;
        runs += 1;
    }
    let n = runs.max(1) as f64;
    TrailOutcome {
        visits: community.visits.len(),
        precision: precision / n,
        recall: recall / n,
        latency_ms: latency / n,
    }
}

/// The F2 table: quality + latency vs history size.
pub fn run(quick: bool) -> Table {
    let mut table = Table::new(
        "F2: trail-tab context replay — precision/recall/latency vs history size",
        &[
            "sessions/user",
            "archived visits",
            "replay precision",
            "replay recall",
            "latency",
        ],
    );
    let sweep: &[usize] = if quick { &[4, 8] } else { &[5, 10, 20, 40] };
    for &sessions in sweep {
        let o = run_once(quick, sessions, 21);
        table.row(vec![
            sessions.to_string(),
            o.visits.to_string(),
            pct(o.precision),
            pct(o.recall),
            format!("{} ms", f3(o.latency_ms)),
        ]);
    }
    table
        .note("paper (Fig. 2): replay recreates the topical context; precision >> topic base rate");
    table
}
