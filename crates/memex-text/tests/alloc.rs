//! What the analysis paths allocate, counted: a snippet costs a constant
//! number of allocations however long the page, read from its text or from
//! its word memo, `Analyzer::counts` allocates per distinct term, not per
//! token, and `Analyzer::index_document` on a vocabulary that knows the
//! page's terms allocates neither. Its own test binary, because
//! the counting allocator is process-wide; the counter is per thread, so
//! the harness's other threads do not disturb a test's count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use memex_text::snippet::{page_words, snippet, SnippetQuery};
use memex_text::{Analyzer, Vocabulary};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is a thread-local counter bump, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    let after = ALLOCATIONS.with(Cell::get);
    drop(out);
    after - before
}

/// `n` words cycling through markup, case, punctuation, stem variants and
/// two query terms, so every word takes the full tokenise → stem → look-up
/// path.
fn page(n: usize) -> String {
    const WORDS: [&str; 8] = [
        "Compilers",
        "<b>optimizing</b>",
        "the",
        "inner-loop,",
        "baroque",
        "music.",
        "relational",
        "gardens",
    ];
    (0..n)
        .map(|i| WORDS[i % WORDS.len()])
        .collect::<Vec<_>>()
        .join(" ")
}

#[test]
fn a_snippet_allocates_the_same_for_a_long_page_as_for_a_short_one() {
    let (short, long) = (page(20), page(2_000));
    let query = "compiler optimization music";
    // Warm the stopword set: built once per process, on first use.
    let _ = snippet(&short, query, 12);

    let on_short = allocations(|| snippet(&short, query, 12));
    let on_long = allocations(|| snippet(&long, query, 12));
    assert!(
        on_long <= on_short + 2,
        "2 000 words cost {on_long} allocations, 20 words {on_short}"
    );
    assert!(
        on_short <= 24,
        "a snippet is a handful of allocations, not {on_short}"
    );

    // With the query analysed once, what is left per page does not depend
    // on the page either.
    let mut analysed = SnippetQuery::new(query);
    let per_short = allocations(|| analysed.snippet(&short, 12));
    let per_long = allocations(|| analysed.snippet(&long, 12));
    assert!(per_long <= per_short + 2, "{per_long} vs {per_short}");
    assert!(per_short < on_short, "analysing the query is not free");

    // Read from the page's word memo, nothing per word either — and no
    // more than the text walk.
    let mut terms: Vec<String> = Analyzer.counts(&short).into_keys().collect();
    terms.sort_unstable();
    let position = |stem: &str| terms.binary_search_by(|t| t.as_str().cmp(stem)).ok();
    let (short_memo, long_memo) = (page_words(&short, position), page_words(&long, position));
    let stems = analysed.stems().to_vec();
    let mut from_words = |text: &str, memo: &[u16]| {
        allocations(|| {
            let read = analysed.snippet_from_words(text, memo, |i| position(&stems[i]), 12);
            assert!(read.is_some(), "every query stem is a term of the page");
        })
    };
    let memo_short = from_words(&short, &short_memo);
    let memo_long = from_words(&long, &long_memo);
    assert!(
        memo_long <= memo_short + 2,
        "{memo_long} vs {memo_short} from the memo"
    );
    assert!(
        memo_short <= per_short,
        "{memo_short} from the memo, {per_short} from the text"
    );
}

#[test]
fn counts_allocates_per_distinct_term_not_per_token() {
    let analyzer = Analyzer;
    let (short, long) = (page(20), page(2_000));
    let _ = analyzer.counts(&short);

    let on_short = allocations(|| analyzer.counts(&short));
    let on_long = allocations(|| analyzer.counts(&long));
    assert_eq!(
        analyzer.counts(&short).len(),
        analyzer.counts(&long).len(),
        "same distinct terms"
    );
    assert!(
        on_long <= on_short + 2,
        "2 000 tokens cost {on_long} allocations, 20 tokens {on_short}"
    );
    assert!(
        on_short <= 24,
        "eight distinct terms, not {on_short} allocations"
    );
}

#[test]
fn index_document_on_a_known_vocabulary_allocates_the_same_for_a_long_page() {
    // `page` words plus as many of up to 500 distinct ones, so a longer
    // page also says more distinct terms.
    let many_terms = |n: usize| {
        let terms: Vec<String> = (0..n).map(|i| format!("term{}", i % 500)).collect();
        format!("{} {}", page(n), terms.join(" "))
    };
    let analyzer = Analyzer;
    let (short, long) = (many_terms(20), many_terms(2_000));
    let mut vocab = Vocabulary::new();
    let _ = analyzer.index_document(&mut vocab, &long);
    let known = vocab.len();

    let on_short = allocations(|| analyzer.index_document(&mut vocab, &short));
    let on_long = allocations(|| analyzer.index_document(&mut vocab, &long));
    assert_eq!(vocab.len(), known, "every term was known");
    assert_eq!(
        on_long, on_short,
        "508 distinct terms in 4 000 words cost {on_long} allocations, 28 in 40 {on_short}"
    );
    assert!(
        on_short <= 6,
        "a known page is a handful of allocations, not {on_short}"
    );
}
