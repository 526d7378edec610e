//! What a seal and a merge allocate, counted: both stream their entries
//! into one run encoder, so neither copies an entry, and ten times the
//! entries cost a handful more allocations (the growth of the run's index
//! buffer), not ten times as many. Its own test binary, because the
//! counting allocator is process-wide; the counter is per thread, so the
//! harness's other threads do not disturb a test's count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use memex_store::{LsmOptions, LsmStore};

struct Counting;

thread_local! {
    /// (allocations and reallocations, bytes they asked for)
    static ALLOCATED: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

fn count(bytes: usize) {
    ALLOCATED.with(|a| {
        let (n, total) = a.get();
        a.set((n + 1, total + bytes));
    });
}

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is a thread-local counter bump, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
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
fn allocated(f: impl FnOnce()) -> (usize, usize) {
    let (n0, b0) = ALLOCATED.with(Cell::get);
    f();
    let (n1, b1) = ALLOCATED.with(Cell::get);
    (n1 - n0, b1 - b0)
}

/// Four seals of `n / 4` fresh entries each (24-byte keys, 40-byte
/// values): the allocations and bytes of the third, a plain seal, and of
/// the fourth, which readies the level-0 tier and merges it.
fn seal_costs(n: usize) -> ((usize, usize), (usize, usize)) {
    let mut store = LsmStore::open_memory_opts(LsmOptions {
        memtable_bytes: u64::MAX,
        compact_min_runs: 4,
    })
    .unwrap();
    let value = [b'v'; 40];
    let mut costs = Vec::new();
    for seal in 0..4 {
        for i in seal * n / 4..(seal + 1) * n / 4 {
            store
                .put(format!("key-{i:020}").as_bytes(), &value)
                .unwrap();
        }
        costs.push(allocated(|| store.seal().unwrap()));
    }
    assert_eq!(store.run_levels().len(), 1, "the fourth seal merged");
    (costs[2], costs[3])
}

#[test]
fn a_seal_and_a_merge_allocate_the_same_for_ten_times_the_entries() {
    let (plain_1k, merge_1k) = seal_costs(1_000);
    let (plain_10k, merge_10k) = seal_costs(10_000);
    eprintln!(
        "plain seal: {plain_1k:?} -> {plain_10k:?}; merging seal: {merge_1k:?} -> {merge_10k:?} \
         (allocations, bytes) for 1 000 -> 10 000 entries"
    );
    assert!(
        plain_10k.0 <= plain_1k.0 + 16,
        "a plain seal allocates per entry: {} -> {}",
        plain_1k.0,
        plain_10k.0
    );
    assert!(
        merge_10k.0 <= merge_1k.0 + 16,
        "a merging seal allocates per entry: {} -> {}",
        merge_1k.0,
        merge_10k.0
    );
}
