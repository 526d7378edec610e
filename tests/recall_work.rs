//! What a recall reads, counted on the benchmark's world
//! (`memex_bench::worlds::standard_world(false, 1)`): its time filter reads
//! the asker's own visit list once, whatever the window
//! (`servlet.recall.visits`), and BM25 scores only the asker's own pages in
//! that window (`index.query.scored`) — the asker's history, not the
//! community's. No timing is asserted.

use std::collections::BTreeSet;

use memex::core::memex::Memex;
use memex_bench::worlds::standard_world;

/// `servlet.recall.visits` and `index.query.scored`.
fn work(memex: &Memex) -> (u64, u64) {
    let snap = memex.registry().snapshot();
    (
        snap.counter("servlet.recall.visits"),
        snap.counter("index.query.scored"),
    )
}

#[test]
fn a_recall_reads_the_askers_visits_once_and_scores_only_their_pages() {
    let (corpus, _, memex) = standard_world(false, 1);
    let trails = &memex.server.trails;
    let mut scored_somewhere = false;
    for user in memex.users() {
        let own = trails.user_visits(user).count() as u64;
        let times: Vec<u64> = trails.user_visits(user).map(|v| v.time).collect();
        let (first, last) = (
            times.iter().copied().min().unwrap_or(0),
            times.iter().copied().max().unwrap_or(0),
        );
        let middle = first + (last - first) / 2;
        let pages = trails.user_pages(user, 0);
        let page = pages[pages.len() / 2];
        let words: Vec<&str> = corpus.pages[page as usize]
            .text
            .split_whitespace()
            .take(3)
            .collect();
        let query = words.join(" ");
        for (since, until) in [(0, u64::MAX), (first, middle), (middle, last)] {
            let in_window = trails
                .user_visits(user)
                .filter(|v| v.time >= since && v.time <= until)
                .map(|v| v.page)
                .collect::<BTreeSet<u32>>()
                .len() as u64;
            let before = work(&memex);
            let hits = memex
                .recall(user, &query, since, until, 12)
                .expect("recall");
            let after = work(&memex);
            let (visits, scored) = (after.0 - before.0, after.1 - before.1);
            assert_eq!(
                visits, own,
                "user {user} [{since}, {until}]: the filter reads the own list once"
            );
            assert!(
                scored <= in_window,
                "user {user} [{since}, {until}]: {scored} scored, {in_window} own pages"
            );
            assert!(hits.len() as u64 <= scored.min(12));
            scored_somewhere |= scored > 0;
        }
    }
    assert!(scored_somewhere, "some recall scored a page");
}
