//! What the analysis paths allocate, counted: a snippet costs a constant
//! number of allocations however long the page when read from its text,
//! and exactly the returned `String` when read from its word memo,
//! `Analyzer::counts` allocates per distinct term, not per token, and
//! `Analyzer::index_document` on a vocabulary that knows the page's terms
//! allocates neither — nor does `Analyzer::index_page`, which writes the
//! page's word memo in the same walk. Its own test binary, because
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
}

/// A snippet read from the page's word memo allocates the `String` it
/// returns and nothing else once the query's hit buffer has room for the
/// page's hits, and that buffer once before: a 40-word page and a 4 000-word
/// one alike, with one space between words or two.
#[test]
fn a_snippet_read_from_the_memo_allocates_only_the_string() {
    let query = "compiler optimization music";
    let mut terms: Vec<String> = Analyzer.counts(&page(40)).into_keys().collect();
    terms.sort_unstable();
    let position = |stem: &str| terms.binary_search_by(|t| t.as_str().cmp(stem)).ok();
    for gap in [" ", "  "] {
        for n in [40, 4_000] {
            let text = page(n).replace(' ', gap);
            let memo = page_words(&text, terms.len(), position).expect("a memo");
            let mut analysed = SnippetQuery::new(query);
            let stems = analysed.stems().to_vec();
            let at = |i: usize| position(&stems[i]);
            let cold = allocations(|| analysed.snippet_from_memo(&text, &memo, at, 12));
            assert_eq!(cold, 2, "{n} words, gap {gap:?}: the hits and the string");
            let read = analysed.snippet_from_memo(&text, &memo, at, 12);
            assert_eq!(read, Some(snippet(&text, query, 12)));
            let warm = allocations(|| analysed.snippet_from_memo(&text, &memo, at, 12));
            assert_eq!(
                warm, 1,
                "{n} words, gap {gap:?}: the string and nothing else"
            );
        }
    }
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

/// `page` words plus as many of up to 500 distinct ones, so a longer page
/// also says more distinct terms.
fn many_terms(n: usize) -> String {
    let terms: Vec<String> = (0..n).map(|i| format!("term{}", i % 500)).collect();
    format!("{} {}", page(n), terms.join(" "))
}

#[test]
fn index_document_on_a_known_vocabulary_allocates_the_same_for_a_long_page() {
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

#[test]
fn index_page_on_a_known_vocabulary_allocates_the_same_for_a_long_page() {
    let analyzer = Analyzer;
    let title = "Compilers for the baroque garden";
    let (short, long) = (many_terms(20), many_terms(2_000));
    let mut vocab = Vocabulary::new();
    let _ = analyzer.index_page(&mut vocab, title, &long);
    let known = vocab.len();

    let on_short = allocations(|| analyzer.index_page(&mut vocab, title, &short));
    let on_long = allocations(|| analyzer.index_page(&mut vocab, title, &long));
    assert_eq!(vocab.len(), known, "every term was known");
    let memo = analyzer.index_page(&mut vocab, title, &long).memo;
    assert_eq!(memo.map(|m| m.words()), Some(4_000), "every word");
    assert_eq!(
        on_long, on_short,
        "508 distinct terms in 4 000 words cost {on_long} allocations, 28 in 40 {on_short}"
    );
    // The walk's slots for the pairs and for the memo's draft, its token
    // buffers for the title and the text, and the two kept: the pairs'
    // copy and the memo.
    assert!(
        on_short <= 6,
        "a known page is a handful of allocations, not {on_short}"
    );
}
