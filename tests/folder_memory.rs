//! What the folder spaces hold, counted: on the benchmark's world
//! (`standard_world(false, 1)`: 16 users, 484 bookmarks, 425 confirmed
//! pages and 1 734 guesses), every user's folder space is taken out and
//! dropped, and the heap bytes that frees are summed. Each space keeps its
//! naive Bayes model as one term table, grows its tables by exactly what
//! they add and shares its confirmed pages' vectors with the archive, so
//! the sum stays under a bound measured plus 10 %; and `mem.folders.bytes`, the gauge the
//! demon sweep publishes from `FolderSpace::heap_bytes`, tells the same
//! sum to within 10 %. Its own test binary, because the counting allocator
//! is process-wide; the count is per thread, so the harness's other
//! threads do not disturb it. It asserts no timing.

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

/// The folder spaces of the benchmark world may hold at most this many
/// heap bytes: 220 828 measured plus 10 %, with every table grown by
/// exactly what it holds (0.91 MB while the model was hash tables and each
/// confirmed page's vector a copy; 0.30 MB while the tables grew by
/// doubling).
const BOUND: usize = 242_900;

#[test]
fn the_worlds_folder_spaces_fit_their_bound_and_the_gauge_tells_their_size() {
    let (_, _, mut memex) = standard_world(false, 1);
    let gauge = memex.registry().snapshot().gauge("mem.folders.bytes");
    let mut freed = 0isize;
    for user in memex.users() {
        // Handing the space out drops the user's routing memo first, so
        // the count below sees the space alone.
        let space = memex.folder_space(user);
        let before = LIVE.with(Cell::get);
        drop(std::mem::take(space));
        freed += before - LIVE.with(Cell::get);
    }
    let freed = freed as usize;
    println!("folder spaces: {freed} bytes freed, mem.folders.bytes = {gauge}");
    assert!(
        freed <= BOUND,
        "folder spaces hold {freed} bytes, over {BOUND}"
    );
    let gap = (gauge as f64 - freed as f64).abs();
    assert!(
        gap <= 0.1 * freed as f64,
        "mem.folders.bytes = {gauge}, but dropping the spaces freed {freed} bytes"
    );
}
