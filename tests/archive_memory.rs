//! What the archive's vocabulary holds, counted: on the benchmark's world
//! (`standard_world(false, 1)`), the vocabulary is taken out and dropped,
//! and `mem.vocab.bytes`, the gauge the demon sweep publishes from
//! `Vocabulary::heap_bytes`, must tell the heap bytes that frees to within
//! 10 %; `mem.index.bytes` must read what `InvertedIndex::heap_bytes` says
//! (the index's unit tests hold that to what dropping its tables frees).
//! Its own test binary, because the counting allocator is process-wide;
//! the count is per thread, so the harness's other threads do not disturb
//! it. It asserts no timing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use memex_bench::worlds::standard_world;

struct Counting;

thread_local! {
    /// Bytes this thread allocated minus bytes it freed.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is a thread-local counter update, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.with(|n| n.set(n.get() + layout.size() as isize));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.with(|n| n.set(n.get() - layout.size() as isize));
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.with(|n| n.set(n.get() + new_size as isize - layout.size() as isize));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn the_vocabulary_and_index_gauges_tell_their_sizes() {
    let (_, _, mut memex) = standard_world(false, 1);
    let snap = memex.registry().snapshot();
    let (vocab_gauge, index_gauge) = (snap.gauge("mem.vocab.bytes"), snap.gauge("mem.index.bytes"));
    assert_eq!(index_gauge, memex.server.index.heap_bytes() as i64);
    assert!(index_gauge > 0);

    let vocab = std::mem::take(&mut memex.server.vocab);
    let terms = vocab.len();
    let before = LIVE.with(Cell::get);
    drop(vocab);
    let freed = (before - LIVE.with(Cell::get)) as f64;
    println!("vocabulary of {terms} terms: {freed} bytes freed, mem.vocab.bytes = {vocab_gauge}");
    let gap = (vocab_gauge as f64 - freed).abs();
    assert!(
        gap <= 0.1 * freed,
        "mem.vocab.bytes = {vocab_gauge}, but dropping the vocabulary freed {freed} bytes"
    );
}
