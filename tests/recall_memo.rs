//! A recall hit's snippet is read from the page's word memo, on the
//! benchmark's world (`memex_bench::worlds::standard_world(false, 1)`, the
//! one `folder_assignments.rs` pins). The fetch demon's analysis wrote every
//! archived page's memo — each term's words and each word's start, for the
//! text it fetched — so a recall builds none, and every snippet, cut from
//! the text at its window's starts, is the one the text walk renders. The
//! world's corpus has no stopwords, so no word of any page is outside its
//! terms and no hit falls back to the text — not even for a query stem the
//! page lacks. CI runs this in release too, where a slot that overflowed
//! would wrap silently instead of panicking.

use std::collections::BTreeSet;

use memex::core::memex::{Memex, RecallHit};
use memex::text::snippet::snippet;
use memex_bench::worlds::standard_world;

/// `demon.page_words.fallbacks`: recall hits that walked their page's text.
fn fallbacks(memex: &Memex) -> u64 {
    memex
        .registry()
        .snapshot()
        .counter("demon.page_words.fallbacks")
}

/// Per user, queries of two words off pages of their own history, as the
/// benchmark draws them, and one of a word off a page and a word of no
/// page.
fn queries(memex: &Memex) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for user in memex.users() {
        let pages = memex.server.trails.user_pages(user, 0);
        for k in 0..4usize {
            let page = pages[(k * 7) % pages.len()];
            let words: Vec<&str> = memex.corpus.pages[page as usize]
                .text
                .split_whitespace()
                .collect();
            let (a, b) = (
                words[(k * 3) % words.len()],
                words[(k * 5 + 1) % words.len()],
            );
            out.push((user, format!("{a} {b}")));
            if k == 0 {
                out.push((user, format!("{a} zeppelin")));
            }
        }
    }
    out
}

fn recall_all(memex: &Memex, queries: &[(u32, String)]) -> Vec<Vec<RecallHit>> {
    queries
        .iter()
        .map(|(user, query)| memex.recall(*user, query, 0, u64::MAX, 12).expect("recall"))
        .collect()
}

#[test]
fn every_archived_page_has_its_memo_and_no_recall_walks_a_text() {
    let (corpus, _, memex) = standard_world(false, 1);
    let archived: Vec<u32> = memex
        .server
        .trails
        .pages()
        .filter(|&page| memex.server.tf(page).is_some())
        .collect();
    assert!(archived.len() > 100, "{} pages archived", archived.len());
    for &page in &archived {
        let text = &corpus.pages[page as usize].text;
        let memo = memex.server.page_memo(page).expect("a memo");
        assert_eq!(memo.text_len(), text.len(), "page {page}");
        assert_eq!(memo.words(), text.split_whitespace().count(), "page {page}");
        assert!(!memo.outside(), "page {page} has a word outside its terms");
    }

    let queries = queries(&memex);
    let first = recall_all(&memex, &queries);
    let mut hit_pages = BTreeSet::new();
    for ((_, query), hits) in queries.iter().zip(&first) {
        for hit in hits {
            let text = &corpus.pages[hit.page as usize].text;
            assert_eq!(hit.snippet, snippet(text, query, 12), "page {}", hit.page);
            hit_pages.insert(hit.page);
        }
    }
    assert!(hit_pages.len() > 100, "{} pages hit", hit_pages.len());
    assert_eq!(fallbacks(&memex), 0, "no hit walked its page's text");

    let again = recall_all(&memex, &queries);
    assert_eq!(again, first);
    assert_eq!(fallbacks(&memex), 0);
}
