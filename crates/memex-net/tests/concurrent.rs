//! Concurrent serving tests: N reader threads race one writer through one
//! shared [`Service`] and the answers must always reflect a consistent
//! write epoch — a reader may see an *older* archive than the latest write,
//! never a torn one, and the read cache must never serve a result from
//! before a write after that write was acknowledged.
//!
//! These run under the nightly TSan job in CI (`san-matrix`), which makes
//! the RwLock + epoch-cache protocol race-checked, not just stress-tested.

mod serve;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use memex_bench::script::{self, visit};
use memex_core::memex::Memex;
use memex_core::servlet::{Request, Response};
use memex_net::Service;
use memex_web::corpus::Corpus;

use serve::ask;

/// The user whose visits the writer streams in while readers watch.
const WATCHED_USER: u32 = 9;
const READERS: usize = 4;
const WRITES: usize = 20;

/// The script's world, and the watched user registered with an empty
/// trail for the writer to add to.
fn world() -> (Arc<Corpus>, Memex) {
    let corpus = script::corpus(60);
    let mut memex = script::world(&corpus);
    memex
        .register_user(WATCHED_USER, "watched")
        .expect("register");
    (corpus, memex)
}

fn bill_request() -> Request {
    Request::Bill {
        user: WATCHED_USER,
        since: 0,
        until: u64::MAX,
    }
}

/// Total visits across every line of a Bill response — grows by exactly one
/// per acknowledged visit event, which makes it a write-epoch watermark.
fn bill_total(resp: &Response) -> u32 {
    match resp {
        Response::Bill(lines) => lines.iter().map(|l| l.visits).sum(),
        other => panic!("expected Bill, got {other:?}"),
    }
}

/// N concurrent readers poll the watched user's bill while one writer
/// streams visit events, each thread calling `Service::handle` on the one
/// shared service. Each reader's watermark must be non-decreasing (a stale
/// cached answer after a newer one was observed would decrease it), and
/// after the writer finishes every reader — and the cache — must converge
/// on the exact final count.
#[test]
fn concurrent_readers_see_monotonic_epochs_while_writer_streams() {
    let (corpus, memex) = world();
    let service = Arc::new(Service::new(memex, 64));
    let done = Arc::new(AtomicBool::new(false));

    let reader_handles: Vec<_> = (0..READERS)
        .map(|_| {
            let (service, done) = (Arc::clone(&service), Arc::clone(&done));
            std::thread::spawn(move || {
                let mut watermark = 0u32;
                let mut observations = 0u64;
                while !done.load(Ordering::SeqCst) {
                    let total = bill_total(&ask(&service, &bill_request(), None));
                    assert!(
                        total >= watermark,
                        "bill went backwards: {total} after {watermark} — a stale \
                         cached answer was served after a newer write was observed"
                    );
                    watermark = total;
                    observations += 1;
                }
                // Convergence: the writer is done, so the very next answer
                // (cached or dispatched) must be the final archive.
                let final_total = bill_total(&ask(&service, &bill_request(), None));
                assert_eq!(final_total, WRITES as u32, "reader did not converge");
                observations
            })
        })
        .collect();

    // One writer streams visits; every Ack means the event (and its demon
    // pass) is applied under the write lock before the next one goes in.
    let pages = corpus.pages_of_topic(1);
    for i in 0..WRITES {
        let page = pages[i % pages.len()];
        assert_eq!(
            ask(
                &service,
                &visit(&corpus, WATCHED_USER, page, 1_000 + i as u64),
                None
            ),
            Response::Ack { archived: true }
        );
    }
    done.store(true, Ordering::SeqCst);

    let mut total_reads = 0u64;
    for h in reader_handles {
        total_reads += h.join().expect("reader thread");
    }
    total_reads += READERS as u64; // the per-reader convergence read

    let service = Arc::try_unwrap(service).unwrap_or_else(|_| panic!("every reader joined"));
    let memex = service.into_memex();
    let snap = memex.registry().snapshot();
    // Nothing shed, nothing panicked, nothing poisoned.
    assert_eq!(snap.counter("net.shed"), 0);
    assert_eq!(snap.counter("net.req.panics"), 0);
    assert_eq!(snap.counter("net.req.poisoned"), 0);
    // Every read answered, and every cacheable probe is accounted for as
    // exactly one hit or one miss.
    assert_eq!(snap.counter("net.read.ok"), total_reads);
    assert_eq!(
        snap.counter("net.read.cache.hit") + snap.counter("net.read.cache.miss"),
        total_reads
    );
    // Ground truth: the archive the service hands back agrees with what the
    // readers converged on.
    let final_bill: u32 = memex
        .bill(WATCHED_USER, 0, u64::MAX)
        .iter()
        .map(|l| l.visits)
        .sum();
    assert_eq!(final_bill, WRITES as u32);
}

/// Deterministic cache-coherence check: a repeated read must hit the
/// cache, an interleaved write must invalidate it, and the post-write read
/// must see the new archive — never the cached one.
#[test]
fn write_invalidates_cached_read_results() {
    let (corpus, memex) = world();
    let service = Service::new(memex, 64);

    let before = bill_total(&ask(&service, &bill_request(), None));
    assert_eq!(before, 0, "watched user starts with an empty trail");
    // Identical request, no intervening write: answered from the cache.
    let again = bill_total(&ask(&service, &bill_request(), None));
    assert_eq!(again, before);

    let page = corpus.pages_of_topic(1)[0];
    assert_eq!(
        ask(&service, &visit(&corpus, WATCHED_USER, page, 5_000), None),
        Response::Ack { archived: true }
    );

    // The write bumped the epoch: the cached entry is dead, and the fresh
    // dispatch must see the new visit.
    let after = bill_total(&ask(&service, &bill_request(), None));
    assert_eq!(after, 1, "post-write read served a stale cached result");

    let snap = service.into_memex().registry().snapshot();
    // Probe accounting: 3 bill reads = 1 hit + 2 misses.
    assert_eq!(snap.counter("net.read.cache.hit"), 1);
    assert_eq!(snap.counter("net.read.cache.miss"), 2);
}
