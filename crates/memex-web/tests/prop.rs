//! Property tests for the simulation substrate: generated corpora are
//! structurally sound for any configuration, simulation output respects
//! its own ground truth.

use proptest::prelude::*;

use memex_web::corpus::{Corpus, CorpusConfig};
use memex_web::surfer::{Community, SurferConfig};
use memex_web::zipf::Zipf;

fn config_strategy() -> impl Strategy<Value = CorpusConfig> {
    (
        2usize..6,    // topics
        4usize..20,   // pages per topic
        0.0f64..0.9,  // front fraction
        0.0f64..1.0,  // link locality
        any::<u64>(), // seed
    )
        .prop_map(|(topics, pages, front, locality, seed)| CorpusConfig {
            num_topics: topics,
            pages_per_topic: pages,
            front_fraction: front,
            link_locality: locality,
            interior_tokens: (5, 20),
            front_tokens: (2, 6),
            seed,
            ..CorpusConfig::default()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any configuration yields a structurally sound corpus.
    #[test]
    fn corpus_structurally_sound(config in config_strategy()) {
        let c = Corpus::generate(config.clone());
        prop_assert_eq!(c.num_pages(), config.num_topics * config.pages_per_topic);
        prop_assert_eq!(c.topic_names.len(), config.num_topics);
        prop_assert_eq!(c.topic_nodes.len(), config.num_topics);
        // Page ids are dense and topics in range; URLs unique.
        let mut urls = std::collections::HashSet::new();
        for (i, p) in c.pages.iter().enumerate() {
            prop_assert_eq!(p.id as usize, i);
            prop_assert!(p.topic < config.num_topics);
            prop_assert!(urls.insert(p.url.clone()), "duplicate url {}", p.url);
            prop_assert!(p.bytes > 0);
        }
        // Graph edges stay inside the corpus.
        for p in 0..c.num_pages() as u32 {
            for &t in c.graph.out_links(p) {
                prop_assert!((t as usize) < c.num_pages());
                prop_assert_ne!(t, p, "no self-links");
            }
        }
        // Determinism.
        let again = Corpus::generate(config);
        prop_assert_eq!(again.pages.len(), c.pages.len());
        prop_assert_eq!(&again.pages[0].text, &c.pages[0].text);
        prop_assert_eq!(again.graph.num_edges(), c.graph.num_edges());
    }

    /// Simulated communities reference only valid pages/users, sessions
    /// are time-ordered, and referrer edges exist in the web graph.
    #[test]
    fn community_consistent(seed in any::<u64>(), users in 2usize..6) {
        let corpus = Corpus::generate(CorpusConfig {
            num_topics: 3,
            pages_per_topic: 15,
            interior_tokens: (5, 15),
            seed,
            ..CorpusConfig::default()
        });
        let community = Community::simulate(
            &corpus,
            &SurferConfig {
                num_users: users,
                sessions_per_user: 3,
                session_length: (2, 6),
                seed,
                ..SurferConfig::default()
            },
        );
        prop_assert_eq!(community.users.len(), users);
        prop_assert!(community.visits.windows(2).all(|w| w[0].time <= w[1].time));
        for v in &community.visits {
            prop_assert!((v.user as usize) < users);
            prop_assert!((v.page as usize) < corpus.num_pages());
            if let Some(r) = v.referrer {
                prop_assert!(corpus.graph.has_edge(r, v.page), "phantom trail edge");
            }
        }
        for b in &community.bookmarks {
            prop_assert!((b.page as usize) < corpus.num_pages());
            prop_assert!(corpus.topic_names.contains(&b.folder));
        }
        // Per-user session times are non-decreasing within a session.
        for truth in &community.users {
            prop_assert!(!truth.interests.is_empty());
            prop_assert!(truth.interests.iter().all(|&t| t < 3));
        }
    }

    /// Zipf samples always fall in support and rank-0 dominates for
    /// non-trivial supports.
    #[test]
    fn zipf_in_support(n in 1usize..200, alpha in 0.2f64..2.0, seed in any::<u64>()) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let z = Zipf::new(n, alpha);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..200 {
            prop_assert!(z.sample(&mut rng) < n);
        }
    }
}
