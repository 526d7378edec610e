//! What a filtered search allocates, counted: the same number of
//! allocations on 600 documents as on 6 000, however many sealed segments
//! hold the query's postings — each is read where it lies, not copied —
//! and no more bytes for a candidate id far beyond the index than without
//! it, because the candidate bitset is sized by the index. Its own test
//! binary, because the counting allocator is process-wide; the counters
//! are per thread, so the harness's other threads (and the store's
//! compaction thread) do not disturb a test's count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use memex_index::search::{bm25_search_among, Bm25Params};
use memex_index::InvertedIndex;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
    BYTES.with(|n| n.set(n.get() + bytes));
}

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is two thread-local counter bumps, which neither allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations and bytes allocated by `f` on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (usize, usize) {
    let before = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    let out = f();
    let after = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    drop(out);
    (after.0 - before.0, after.1 - before.1)
}

const QUERY: [(u32, u32); 2] = [(1, 1), (2, 1)];

/// `docs` documents, each with both query terms and a term of its own:
/// sealed by hand after documents 200 and 400, then every 512th document
/// by the buffer bound, the rest left in the buffer. The store writes its
/// memtable out as a run at those two and after every 1 000th document,
/// so the postings lie in the memtable and in several runs.
fn index(docs: u32) -> InvertedIndex {
    let mut ix = InvertedIndex::open_memory().unwrap();
    for d in 0..docs {
        ix.add_document(d, &[(1, 1 + d % 3), (2, 1 + d % 5), (100 + d, 2)])
            .unwrap();
        if d == 200 || d == 400 || d % 1_000 == 999 {
            ix.checkpoint().unwrap();
        }
    }
    ix
}

/// 100 of a user's pages, all among the first 600 documents.
fn candidates() -> Vec<u32> {
    (0..100).map(|i| (i * 37) % 600).collect()
}

#[test]
fn a_filtered_search_allocates_the_same_on_600_and_6_000_documents() {
    let among = candidates();
    let search = |ix: &InvertedIndex| {
        bm25_search_among(ix, &QUERY, 10, Bm25Params::default(), &among).unwrap()
    };
    let (small, large) = (index(600), index(6_000));
    assert_eq!(search(&small).len(), 10);
    assert_eq!(search(&large).len(), 10);
    let (on_small, _) = allocations(|| search(&small));
    let (on_large, _) = allocations(|| search(&large));
    assert_eq!(on_small, on_large, "600 documents against 6 000");
    // The candidate bitset, its ranks, the tf slots, the idfs, the hits,
    // and one list of store sources per query term.
    assert_eq!(on_small, 5 + QUERY.len());
}

#[test]
fn a_candidate_beyond_the_index_costs_no_bytes() {
    let ix = index(600);
    let among = candidates();
    let mut with_far = among.clone();
    with_far.extend([u32::MAX, 1 << 30, 600]);
    let search =
        |among: &[u32]| bm25_search_among(&ix, &QUERY, 10, Bm25Params::default(), among).unwrap();
    assert_eq!(search(&among), search(&with_far));
    let (count, bytes) = allocations(|| search(&among));
    let (count_far, bytes_far) = allocations(|| search(&with_far));
    assert_eq!(count_far, count);
    assert!(
        bytes_far <= bytes,
        "{bytes_far} bytes with far ids against {bytes} without"
    );
}
