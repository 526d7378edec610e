//! Theme-weight user profiles and collaborative recommendation (§4):
//! "'Normalizing' all members of the community to themes also lets us
//! represent surfers' interests in a canonical form: roughly speaking, a
//! user profile is a set of weights associated with each node of a theme
//! hierarchy; this gives us a means of comparing profiles that is far
//! superior to overlap in sets of URLs."
//!
//! The URL-overlap (Jaccard) baseline lives here too — experiment T5
//! measures exactly that "far superior" claim.

use std::collections::{BTreeMap, HashSet};

use memex_cluster::themes::profile_similarity;
use memex_learn::taxonomy::TopicId;

use crate::memex::Memex;

/// A user's theme profile: for every page they visited, its theme
/// (bookmarked pages carry their discovered theme; other pages are routed to
/// the nearest leaf theme by centroid similarity), weight accumulated up the
/// theme taxonomy. Ordered by node for [`profile_similarity`]'s fixed
/// summation order. Read from the memoised profile table (memo D of
/// DESIGN §11); somebody with no visit has the empty profile.
pub fn theme_profile(memex: &Memex, user: u32) -> &BTreeMap<TopicId, f64> {
    &memex.profiles().of(user).weights
}

/// Most similar surfers by theme-profile cosine (excludes `user`). A user
/// without a folder space has no profile to compare and nobody is asked for
/// theirs: the answer is empty and no memo is built for it.
pub fn similar_surfers(memex: &Memex, user: u32, k: usize) -> Vec<(u32, f64)> {
    let users = memex.users();
    if !users.contains(&user) {
        return Vec::new();
    }
    let profiles = memex.profiles();
    let mine = &profiles.of(user).weights;
    let mut scored: Vec<(u32, f64)> = users
        .into_iter()
        .filter(|&u| u != user)
        .map(|u| (u, profile_similarity(mine, &profiles.of(u).weights)))
        .collect();
    scored.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
    scored.truncate(k);
    scored
}

/// The baseline the paper dismisses: Jaccard overlap of visited URL sets.
pub fn url_jaccard(memex: &Memex, a: u32, b: u32) -> f64 {
    let pa: HashSet<u32> = memex.server.trails.user_pages(a, 0).into_iter().collect();
    let pb: HashSet<u32> = memex.server.trails.user_pages(b, 0).into_iter().collect();
    if pa.is_empty() && pb.is_empty() {
        return 0.0;
    }
    let inter = pa.intersection(&pb).count() as f64;
    let union = pa.union(&pb).count() as f64;
    inter / union
}

/// Surfer ranking by the URL-overlap baseline.
pub fn similar_surfers_by_url(memex: &Memex, user: u32, k: usize) -> Vec<(u32, f64)> {
    let mut scored: Vec<(u32, f64)> = memex
        .users()
        .into_iter()
        .filter(|&u| u != user)
        .map(|u| (u, url_jaccard(memex, user, u)))
        .collect();
    scored.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
    scored.truncate(k);
    scored
}

/// Collaborative recommendation: pages that theme-similar users visited
/// (publicly) which `user` has not, scored by Σ neighbour-similarity ×
/// log(1 + neighbour's visit count).
pub fn recommend_pages(memex: &Memex, user: u32, k: usize) -> Vec<(u32, f64)> {
    let neighbours = similar_surfers(memex, user, 5);
    if neighbours.is_empty() {
        // Nobody to learn from — or a stranger, for whom nothing is built.
        return Vec::new();
    }
    let mine = &memex.profiles().of(user).pages;
    // One (page, share) per page a neighbour visited publicly and `user`
    // did not, neighbour by neighbour.
    let mut shares: Vec<(u32, f64)> = Vec::new();
    let mut theirs: Vec<u32> = Vec::new();
    for (v, sim) in neighbours {
        if sim <= 0.0 {
            continue;
        }
        // A user's visits come by page: each page's are one run.
        theirs.clear();
        let public = memex.server.trails.user_visits(v).filter(|x| x.public);
        theirs.extend(public.map(|x| x.page));
        for run in theirs.chunk_by(|a, b| a == b) {
            if mine.binary_search(&run[0]).is_err() {
                shares.push((run[0], sim * ((run.len() + 1) as f64).ln()));
            }
        }
    }
    // Stable: a page's shares stay in neighbour order and sum from 0.0 in
    // it, as they would into a map entry, so the scores are those bits.
    shares.sort_by_key(|&(page, _)| page);
    let mut out: Vec<(u32, f64)> = Vec::new();
    for (page, share) in shares {
        match out.last_mut() {
            Some((last, score)) if *last == page => *score += share,
            _ => out.push((page, 0.0 + share)),
        }
    }
    out.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
    out.truncate(k);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memex::MemexOptions;
    use memex_server::events::{ClientEvent, VisitEvent};
    use memex_web::corpus::{Corpus, CorpusConfig};
    use std::sync::Arc;

    /// Two pairs of users browsing two disjoint topics, with bookmarks so
    /// themes exist; pair members visit *disjoint* page sets.
    fn world() -> Memex {
        let corpus = Arc::new(Corpus::generate(CorpusConfig {
            num_topics: 2,
            pages_per_topic: 40,
            ..CorpusConfig::default()
        }));
        let mut memex = Memex::new(corpus.clone(), MemexOptions::default()).unwrap();
        for u in 0..4 {
            memex.register_user(u, &format!("u{u}")).unwrap();
        }
        let mut time = 0u64;
        for user in 0..4u32 {
            let topic = (user % 2) as usize;
            let pages = corpus.pages_of_topic(topic);
            // Disjoint halves per pair member.
            let half: Vec<u32> = pages
                .iter()
                .copied()
                .filter(|p| p % 2 == user / 2)
                .take(10)
                .collect();
            for &p in &half {
                time += 1;
                memex.submit(ClientEvent::Visit(VisitEvent {
                    user,
                    session: 0,
                    page: p,
                    url: corpus.pages[p as usize].url.clone(),
                    time,
                    referrer: None,
                }));
            }
            for &p in half.iter().take(4) {
                memex.submit(ClientEvent::Bookmark {
                    user,
                    page: p,
                    url: corpus.pages[p as usize].url.clone(),
                    folder: format!("/{}", corpus.topic_names[topic]),
                    time,
                });
            }
        }
        memex.run_demons().unwrap();
        memex
    }

    #[test]
    fn theme_profiles_pair_users_with_zero_url_overlap() {
        let memex = world();
        // Users 0 and 2 share topic 0 but visited disjoint pages.
        assert_eq!(url_jaccard(&memex, 0, 2), 0.0, "disjoint by construction");
        let similar = similar_surfers(&memex, 0, 3);
        assert_eq!(
            similar[0].0, 2,
            "theme profile still finds the soulmate: {similar:?}"
        );
        assert!(similar[0].1 > 0.5);
        // The URL baseline is blind here.
        let by_url = similar_surfers_by_url(&memex, 0, 3);
        assert!(by_url.iter().all(|&(_, s)| s == 0.0));
    }

    #[test]
    fn profiles_are_normalised_weights() {
        let memex = world();
        let p = theme_profile(&memex, 0);
        assert!(!p.is_empty());
        for &w in p.values() {
            assert!(w > 0.0 && w <= 1.0 + 1e-9);
        }
        // Root accumulates everything assigned, so it carries max weight.
        let max = p.values().cloned().fold(0.0f64, f64::max);
        let root_weight = p
            .get(&memex_learn::taxonomy::Taxonomy::ROOT)
            .copied()
            .unwrap_or(0.0);
        assert!((root_weight - max).abs() < 1e-9);
    }

    #[test]
    fn recommendations_come_from_the_shared_topic() {
        let memex = world();
        let recs = recommend_pages(&memex, 0, 5);
        assert!(!recs.is_empty());
        let corpus = memex.corpus.clone();
        for (page, _) in &recs {
            assert_eq!(corpus.topic_of(*page), 0, "recommendation off-topic");
        }
    }

    #[test]
    fn jaccard_is_symmetric_and_bounded() {
        let memex = world();
        for a in 0..4 {
            for b in 0..4 {
                let ab = url_jaccard(&memex, a, b);
                assert!((0.0..=1.0).contains(&ab));
                assert_eq!(ab, url_jaccard(&memex, b, a));
            }
            assert_eq!(url_jaccard(&memex, a, a), 1.0);
        }
        assert_eq!(
            url_jaccard(&memex, 99, 98),
            0.0,
            "unknown users have empty trails"
        );
    }
}
