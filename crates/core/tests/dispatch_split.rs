//! Servlet dispatch: `Request::classify` sends exactly the writes down the
//! write path, every variant has its own latency histogram, and a write
//! leaves the archive query-visible. A property pins replica determinism:
//! two archives fed the same seeded script answer bit-identically, and a
//! read asked again of one archive answers as it did.

use proptest::prelude::*;

use memex_bench::script::{self, Script};
use memex_core::servlet::{
    dispatch_read, dispatch_write, Classified, Request, Response, ServletLatency,
};
use memex_obs::MetricsRegistry;
use memex_web::corpus::Corpus;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Two independently built archives fed the same script answer
    /// identically, scores compared bit for bit (floats travel as their
    /// bits). Each build hashes with its own `RandomState`, so any answer
    /// that leaks `HashMap` iteration order (a float summed in hash order,
    /// ids numbered in hash order) diverges here. The benchmark relies on
    /// exactly this: its oracle answers in the parent process, the served
    /// trial in a fresh one. Scripts are long enough for users to hold
    /// weight on several themes; shorter ones leave every sum with too few
    /// terms for their order to show. Reads are also re-asked of the same
    /// archive: a servlet that builds a fresh `HashMap` per call (recall's
    /// query-term counts) draws a fresh seed per call, so a 3- or 4-term
    /// recall summed in hash order would differ from itself.
    #[test]
    fn two_archives_fed_the_same_writes_answer_bit_identically(seed in any::<u64>()) {
        let corpus = script::corpus(40);
        let (mut left, mut right) = (script::archive(&corpus), script::archive(&corpus));
        for (i, request) in Script::new(&corpus, seed, 40).steps.iter().enumerate() {
            let answer = script::answer(&mut left, request);
            prop_assert!(
                script::answer(&mut right, request) == answer,
                "seed {}: request #{} {:?} diverged between the two archives", seed, i, request
            );
            if request.is_read() {
                for _ in 0..4 {
                    prop_assert!(
                        script::answer(&mut left, request) == answer,
                        "seed {}: read #{} differs from itself in bits", seed, i
                    );
                }
            }
        }
    }
}

/// One request of every variant, scoped to `user` where it can be: the two
/// writes, the eight reads about a user, then the two about the community.
fn one_of_each(corpus: &Corpus, user: u32) -> [Request; 12] {
    [
        script::visit(corpus, user, 0, 1),
        Request::ImportBookmarks {
            user,
            html: String::new(),
            time: 1,
        },
        Request::Recall {
            user,
            query: "q".into(),
            since: 0,
            until: 1,
            k: 1,
        },
        Request::TrailReplay {
            user,
            folder: 0,
            since: 0,
            max_pages: 1,
        },
        Request::WhatsNew {
            user,
            folder: 0,
            since: 0,
            k: 1,
        },
        Request::Bill {
            user,
            since: 0,
            until: 1,
        },
        Request::SimilarSurfers { user, k: 1 },
        Request::Recommend { user, k: 1 },
        Request::ExportBookmarks { user },
        Request::ProposeFolders { user, k: 1 },
        Request::Stats,
        Request::Traces {
            slow_only: true,
            limit: 8,
        },
    ]
}

/// The classification table is the contract the serving layer leans on:
/// exactly `Event` and `ImportBookmarks` are writes, everything else reads;
/// and every variant but `Stats`/`Traces` names the user it is scoped to.
#[test]
fn classification_matches_the_mutation_surface() {
    let all = one_of_each(&script::corpus(40), 7);
    let (writes, reads) = all.split_at(2);
    for r in reads {
        assert!(r.is_read(), "{} must classify as a read", r.name());
        assert!(matches!(r.clone().classify(), Classified::Read(_)));
    }
    for w in writes {
        assert!(!w.is_read(), "{} must classify as a write", w.name());
        assert!(matches!(w.clone().classify(), Classified::Write(_)));
    }
    let (scoped, community) = all.split_at(10);
    for r in scoped {
        assert_eq!(r.shard_key(), Some(7), "{} is scoped to its user", r.name());
    }
    for r in community {
        assert_eq!(r.shard_key(), None, "{} is community-scoped", r.name());
    }
}

/// Every variant has its own latency histogram, registered once by
/// `ServletLatency::new` as `servlet.<name>.latency`, the catalogued
/// wildcard.
#[test]
fn every_variant_has_its_own_registered_latency_histogram() {
    let all = one_of_each(&script::corpus(40), 0);
    let registry = MetricsRegistry::new();
    let latency = ServletLatency::new(&registry);
    assert_eq!(registry.snapshot().histograms.len(), all.len());
    for r in &all {
        latency.of(r).record(1);
        let name = format!("servlet.{}.latency", r.name());
        let timed = registry.snapshot().histogram(&name).map(|h| h.count);
        assert_eq!(timed, Some(1), "{name} is not the histogram of {r:?}");
    }
}

/// A write through `dispatch_write` leaves the archive query-visible: the
/// write path runs the demons + refresh, so a read straight after sees it.
#[test]
fn write_path_refreshes_query_visible_state() {
    let corpus = script::corpus(40);
    let mut memex = script::archive(&corpus);
    let page = corpus.pages_of_topic(0)[0];
    let resp = match script::visit(&corpus, 0, page, 1).classify() {
        Classified::Write(w) => dispatch_write(&mut memex, w),
        Classified::Read(_) => panic!("a visit event must classify as a write"),
    };
    assert_eq!(resp, Response::Ack { archived: true });
    // No manual run_demons(): the write path already refreshed, so the
    // visit is query-visible through the read path.
    let bill = match (Request::Bill {
        user: 0,
        since: 0,
        until: u64::MAX,
    })
    .classify()
    {
        Classified::Read(r) => dispatch_read(&memex, r),
        Classified::Write(_) => panic!("bill must classify as a read"),
    };
    let Response::Bill(lines) = bill else {
        panic!("expected a bill");
    };
    let visits: u32 = lines.iter().map(|l| l.visits).sum();
    assert_eq!(visits, 1, "write path did not refresh query-visible state");
}
