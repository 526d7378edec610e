//! Query-biased snippets: pick the window of a page's text that covers the
//! most (distinct, then total) query terms — what the search tab shows
//! under each hit.
//!
//! A request analyses its query once ([`SnippetQuery`]) and then reads each
//! returned page for its hits — the display words that match a query stem —
//! from one of two sources:
//!
//! * the text walk ([`SnippetQuery::snippet`]): every whitespace-separated
//!   word is read for its first token ([`Words`]) and, if a query stem
//!   starts with its first byte, stemmed in place in one reused buffer and
//!   looked up among the query's stems — linear in the page's words;
//! * the page's word memo ([`PageMemo`], read by
//!   [`SnippetQuery::snippet_from_memo`]): a positional index of the page,
//!   written when it was analysed — per term of the page, the words whose
//!   first token's stem it is, and per word, where it starts in the text —
//!   so the hits are the query stems' lists merged, and the window is cut
//!   from the text at its words' starts: O(hits + window), whatever the
//!   page's length.
//!
//! Either way the window is chosen from the hits alone: the first best
//! window starts at word 0 or ends on a hit — one whose last word is not a
//! hit covers no more than the window one word earlier — so only those are
//! scored. Either way a snippet costs a constant number of allocations,
//! whatever the page's length.

use crate::analyze::Analyzer;
use crate::stem::stem_in_place;
use crate::tokenize::{word_start, Words};

/// The distinct terms of one query, ready to be matched against any number
/// of texts.
#[derive(Debug, Clone)]
pub struct SnippetQuery {
    /// Sorted, so a display word costs a binary search however long the
    /// query.
    stems: Vec<String>,
    /// The bytes the stems start with. Stemming never changes a token's
    /// first byte, so a word whose token starts elsewhere matches nothing
    /// and is neither copied nor stemmed.
    firsts: [bool; 256],
    token: String,
    /// The page's hits: each word that matches a query stem, and that
    /// stem's index in `stems`, in word order. Reused page after page by
    /// both sources, as is `inside`.
    hits: Vec<(usize, usize)>,
    /// Per query stem, its hits inside the window being scored; before
    /// that, on a memo read, its position among the page's terms.
    inside: Vec<usize>,
}

impl SnippetQuery {
    pub fn new(query: &str) -> SnippetQuery {
        SnippetQuery::from_terms(Analyzer.counts(query).into_keys())
    }

    /// From terms already analysed: the keys of [`Analyzer::counts`].
    pub fn from_terms(terms: impl IntoIterator<Item = String>) -> SnippetQuery {
        let mut stems: Vec<String> = terms.into_iter().collect();
        stems.sort_unstable();
        stems.dedup();
        let mut firsts = [false; 256];
        for first in stems.iter().filter_map(|s| s.bytes().next()) {
            firsts[usize::from(first)] = true;
        }
        SnippetQuery {
            inside: Vec::with_capacity(stems.len()),
            stems,
            firsts,
            token: String::new(),
            hits: Vec::new(),
        }
    }

    /// The query's distinct stems, sorted: what the `i` of
    /// [`SnippetQuery::snippet_from_memo`]'s `position(i)` indexes.
    pub fn stems(&self) -> &[String] {
        &self.stems
    }

    /// Extract a snippet of at most `window` words from `text` biased
    /// toward the query. Matching is stem-level, so "optimizing" matches a
    /// query for "optimization". Returns the original-case words joined by
    /// spaces, with an ellipsis on clipped ends. Empty text gives an empty
    /// string.
    pub fn snippet(&mut self, text: &str, window: usize) -> String {
        let SnippetQuery {
            stems,
            firsts,
            token,
            hits,
            inside,
        } = self;
        hits.clear();
        // A text has at most one word per two bytes: room for every word, so
        // a page costs no reallocation past the longest one read so far.
        hits.reserve(text.len() / 2 + 1);
        let mut words = Words::new(text);
        let mut n = 0usize;
        while words.next_into(token, firsts).is_some() {
            // The query stem the word matches, if any: by its first token
            // (none, or one no stem starts like, leaves nothing to stem).
            if token.bytes().next().is_some_and(|b| firsts[usize::from(b)]) {
                stem_in_place(token);
                let stem = token.as_str();
                if let Ok(q) = stems.binary_search_by(|s| s.as_str().cmp(stem)) {
                    hits.push((n, q));
                }
            }
            n += 1;
        }
        let best_word = hit_window(hits, inside, stems.len(), window, n);
        render(text, best_word, window, n)
    }

    /// [`SnippetQuery::snippet`] of `text`, read from `memo`, its word memo,
    /// instead of from its tokens. `position(i)` is where query stem `i`
    /// ([`SnippetQuery::stems`]) sits among the terms the memo was built
    /// against, if it is one of them.
    ///
    /// `None` — read the text instead — when `text` is not the memo's: its
    /// length differs, or a start the window is cut at is off a char
    /// boundary or past the end. And when some query stem is not among the
    /// terms and some word is outside them ([`PageMemo::outside`]): that
    /// word's stem may be the missing one. Otherwise a missing stem matches
    /// no word, every other stem matches exactly the words at its position,
    /// and the snippet is the text walk's, bit for bit.
    pub fn snippet_from_memo(
        &mut self,
        text: &str,
        memo: &PageMemo,
        mut position: impl FnMut(usize) -> Option<usize>,
        window: usize,
    ) -> Option<String> {
        if text.len() != memo.text_len() {
            return None;
        }
        // Each query stem's word list, found by its position, which waits in
        // `inside` until the window is scored: the hits are counted before
        // they are listed, so their buffer grows at most once.
        let SnippetQuery {
            stems,
            hits,
            inside,
            ..
        } = self;
        inside.clear();
        inside.extend((0..stems.len()).map(|q| position(q).unwrap_or(usize::MAX)));
        let lists = inside.iter().map(|&p| memo.occurrences(p));
        if memo.outside && lists.clone().any(|words| words.is_none()) {
            return None;
        }
        hits.clear();
        hits.reserve(lists.clone().flatten().map(<[u16]>::len).sum());
        for (q, words) in lists.enumerate() {
            let words = words.unwrap_or_default();
            hits.extend(words.iter().map(|&word| (usize::from(word), q)));
        }
        // A word sits at one position at most, so the stems' lists share no
        // word: sorted, they are merged in word order.
        hits.sort_unstable();
        let best_word = hit_window(hits, inside, stems.len(), window, memo.words());
        memo.render(text, best_word, window)
    }
}

/// What a page's word memo records of one display word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Entry {
    /// The word has no kept token.
    NoToken,
    /// The stem of its first token is not among the page's terms (a
    /// stopword, or a token markup cut differently when the page was
    /// analysed whole).
    Outside,
    /// The stem of its first token is the page's term at this position.
    At(u32),
}

/// A position among a page's `positions` terms as a memo entry.
pub(crate) fn entry(position: Option<usize>, positions: usize) -> Entry {
    position
        .filter(|&p| p < positions)
        .and_then(|p| u32::try_from(p).ok())
        .map_or(Entry::Outside, Entry::At)
}

/// A page's word memo: a positional index of its text's display words
/// against the page's terms, the source [`SnippetQuery::snippet_from_memo`]
/// reads instead of the text. Built by [`page_words`], or, equal field for
/// field, by [`Analyzer::index_page`](crate::analyze::Analyzer::index_page)
/// inside the walk that counts the page's terms. Only a text of at most
/// [`MAX_TEXT_LEN`] bytes has one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageMemo {
    /// One exactly sized allocation, three runs of slots: per term position
    /// `p`, the end of its occurrences (they begin at `p - 1`'s end); the
    /// occurrences — position by position, in word order, each display
    /// word whose first token's stem sits there; per display word, its
    /// first byte in the text.
    slots: Box<[u16]>,
    /// The page's terms: the first run's length.
    positions: u32,
    /// The text's display words: the last run's length.
    words: u32,
    /// The text's length in bytes: the memo describes no text of another.
    text_len: u32,
    /// Some word's first stem is not among the page's terms
    /// ([`Entry::Outside`]).
    outside: bool,
}

/// The longest text a word memo describes, 64 KiB: its last word starts at
/// 65 535 at most and it has fewer words than that, so every slot fits a
/// `u16`. A longer text has no memo, and its snippets walk the text.
pub const MAX_TEXT_LEN: usize = 1 << 16;

impl PageMemo {
    /// The memo of a text of `text_len` bytes against a page of `positions`
    /// terms, from its display words: each one's start and entry, in order,
    /// read three times. `None` for a text longer than [`MAX_TEXT_LEN`].
    pub(crate) fn new(
        text_len: usize,
        positions: usize,
        words: impl Iterator<Item = (usize, Entry)> + Clone,
    ) -> Option<PageMemo> {
        if text_len > MAX_TEXT_LEN {
            return None;
        }
        let slot = |value: usize| u16::try_from(value).ok();
        let (mut n, mut placed, mut outside) = (0usize, 0usize, false);
        for (_, entry) in words.clone() {
            n += 1;
            match entry {
                Entry::At(_) => placed += 1,
                Entry::Outside => outside = true,
                Entry::NoToken => {}
            }
        }
        let mut slots = vec![0u16; positions + placed + n];
        let (ends, rest) = slots.split_at_mut(positions);
        let (occurrences, starts) = rest.split_at_mut(placed);
        // A counting sort of the placed words by position: count each
        // position's words,
        for (_, entry) in words.clone() {
            if let Entry::At(p) = entry {
                let end = ends.get_mut(p as usize)?;
                *end = slot(usize::from(*end) + 1)?;
            }
        }
        // turn the counts into where each position's words begin,
        let mut begin = 0;
        for end in ends.iter_mut() {
            let count = usize::from(*end);
            *end = slot(begin)?;
            begin += count;
        }
        // and put each word there, which leaves every position at its end.
        for (i, (start, entry)) in words.enumerate() {
            *starts.get_mut(i)? = slot(start)?;
            if let Entry::At(p) = entry {
                let end = ends.get_mut(p as usize)?;
                *occurrences.get_mut(usize::from(*end))? = slot(i)?;
                *end = slot(usize::from(*end) + 1)?;
            }
        }
        Some(PageMemo {
            slots: slots.into_boxed_slice(),
            positions: u32::try_from(positions).ok()?,
            words: u32::try_from(n).ok()?,
            text_len: u32::try_from(text_len).ok()?,
            outside,
        })
    }

    /// The number of display words of the memo's text.
    pub fn words(&self) -> usize {
        self.words as usize
    }

    /// The length in bytes of the text the memo describes.
    pub fn text_len(&self) -> usize {
        self.text_len as usize
    }

    /// Whether some word's first stem is not among the page's terms.
    pub fn outside(&self) -> bool {
        self.outside
    }

    /// The words at term position `p`, in order, if the page has that term.
    fn occurrences(&self, p: usize) -> Option<&[u16]> {
        let positions = self.positions as usize;
        if p >= positions {
            return None;
        }
        let begin = match p.checked_sub(1) {
            Some(before) => usize::from(*self.slots.get(before)?),
            None => 0,
        };
        let end = usize::from(*self.slots.get(p)?);
        self.slots.get(positions + begin..positions + end)
    }

    /// Where word `i` starts in the text.
    fn start(&self, i: usize) -> Option<usize> {
        let first = self.slots.len().checked_sub(self.words())?;
        self.slots.get(first + i).map(|&start| usize::from(start))
    }

    /// [`render`] of the window of `window` words from word `best_word`,
    /// cut from `text` at its words' starts: each word up to the next one's
    /// start (the last one's up to the text's end), trimmed. `None` when a
    /// start is off a char boundary of `text` or past its end: a text not
    /// the memo's.
    fn render(&self, text: &str, best_word: usize, window: usize) -> Option<String> {
        let n = self.words();
        let w = window.max(1).min(n);
        if w == 0 {
            return Some(String::new());
        }
        let end = |i: usize| {
            if i + 1 < n {
                self.start(i + 1)
            } else {
                Some(text.len())
            }
        };
        let (lead, trail) = (best_word > 0, best_word + w < n);
        // The text from the window's first word to its end holds its words
        // and at least one blank byte between each two: room for the words
        // joined by single spaces.
        let span = end(best_word + w - 1)?.saturating_sub(self.start(best_word)?);
        let ends = usize::from(lead) * LEAD.len() + usize::from(trail) * TRAIL.len();
        let mut out = String::with_capacity(span + ends);
        if lead {
            out.push_str(LEAD);
        }
        for i in best_word..best_word + w {
            if i > best_word {
                out.push(' ');
            }
            out.push_str(text.get(self.start(i)?..end(i)?)?.trim_end());
        }
        if trail {
            out.push_str(TRAIL);
        }
        Some(out)
    }
}

/// A page's word memo ([`PageMemo`]) against its `positions` terms: for each
/// display word of `text`, its start and where its first token's stem sits
/// among the terms (`position`), outside them if it is not one (or sits at
/// `positions` or beyond). One walk of the text that stems every word: the
/// reference [`Analyzer::index_page`](crate::analyze::Analyzer::index_page)
/// writes the same memo by, inside the walk that counts the page's terms.
/// `None` for a text longer than [`MAX_TEXT_LEN`].
pub fn page_words(
    text: &str,
    positions: usize,
    mut position: impl FnMut(&str) -> Option<usize>,
) -> Option<PageMemo> {
    if text.len() > MAX_TEXT_LEN {
        return None;
    }
    let mut words = Words::new(text);
    let mut token = String::new();
    let mut entries = Vec::new();
    while let Some((start, _)) = words.next_into(&mut token, &[true; 256]) {
        entries.push((
            start,
            if token.is_empty() {
                Entry::NoToken
            } else {
                stem_in_place(&mut token);
                entry(position(&token), positions)
            },
        ));
    }
    PageMemo::new(text.len(), positions, entries.iter().copied())
}

/// What a snippet clipped at its start or its end shows there.
const LEAD: &str = "… ";
const TRAIL: &str = " …";

/// The first word of the first best window of `window` words among `n`,
/// from their `hits` alone: each `(word, stem)`, in word order, for a query
/// of `stems` stems; `inside` is scratch for the per-stem counts. Score =
/// (distinct stems covered, total hits), and the first window with the best
/// score wins; word 0 when no window fits or none scores.
///
/// A window starting at word `s > 0` whose last word is not a hit covers
/// no hit the window starting at `s - 1` lacks, so it is never the first
/// best: only the window at word 0 and the windows ending on a hit are
/// scored, in order, with two cursors into `hits`.
fn hit_window(
    hits: &[(usize, usize)],
    inside: &mut Vec<usize>,
    stems: usize,
    window: usize,
    n: usize,
) -> usize {
    let window = window.max(1);
    if n < window {
        return 0;
    }
    inside.clear();
    inside.resize(stems, 0);
    let (mut distinct, mut total) = (0usize, 0usize);
    let mut best_score = (0usize, 0usize);
    let mut best_word = 0usize;
    // `hits[left..right]` are inside the window.
    let (mut left, mut right) = (0usize, 0usize);
    let last_words = hits.iter().map(|&(word, _)| word).filter(|&w| w >= window);
    for last in std::iter::once(window - 1).chain(last_words) {
        while let Some(&(_, q)) = hits.get(right).filter(|&&(word, _)| word <= last) {
            if inside[q] == 0 {
                distinct += 1;
            }
            inside[q] += 1;
            total += 1;
            right += 1;
        }
        let first = last + 1 - window;
        while let Some(&(_, q)) = hits.get(left).filter(|&&(word, _)| word < first) {
            inside[q] -= 1;
            if inside[q] == 0 {
                distinct -= 1;
            }
            total -= 1;
            left += 1;
        }
        if (distinct, total) > best_score {
            best_score = (distinct, total);
            best_word = first;
        }
    }
    best_word
}

/// The snippet of `window` words from word `best_word` of `text`'s `n`,
/// with an ellipsis on clipped ends.
fn render(text: &str, best_word: usize, window: usize, n: usize) -> String {
    let w = window.max(1).min(n);
    let mut out = String::new();
    if best_word > 0 {
        out.push_str(LEAD);
    }
    let shown = text[word_start(text, best_word)..]
        .split_whitespace()
        .take(w);
    for (i, word) in shown.enumerate() {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(word);
    }
    if best_word + w < n {
        out.push_str(TRAIL);
    }
    out
}

/// One-shot [`SnippetQuery::snippet`]: analyse `query`, read one `text`.
pub fn snippet(text: &str, query: &str, window: usize) -> String {
    SnippetQuery::new(query).snippet(text, window)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEXT: &str = "the quick brown fox jumps over the lazy dog while a \
                        compiler optimizes the inner loops of the interpreter \
                        and the band plays baroque music in the garden";

    #[test]
    fn finds_the_relevant_window() {
        let s = snippet(TEXT, "compiler optimization", 8);
        assert!(s.contains("compiler"), "{s}");
        assert!(s.contains("optimizes"), "stem-level match: {s}");
        assert!(!s.contains("baroque"), "window stays tight: {s}");
    }

    #[test]
    fn ellipses_mark_clipping() {
        let s = snippet(TEXT, "baroque music", 6);
        assert!(s.starts_with("… "), "{s}");
        assert!(s.contains("baroque music"));
        let s2 = snippet(TEXT, "quick brown", 6);
        assert!(!s2.starts_with('…'));
        assert!(s2.ends_with(" …"));
    }

    #[test]
    fn no_match_returns_leading_window() {
        let s = snippet(TEXT, "zeppelin", 5);
        assert!(s.starts_with("the quick brown fox jumps"));
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(snippet("", "anything", 10), "");
        assert_eq!(snippet("word", "", 10), "word");
        let s = snippet("one two", "two", 100);
        assert_eq!(s, "one two", "window larger than text");
    }

    #[test]
    fn prefers_windows_covering_more_distinct_terms() {
        let text = "music music music music nothing nothing compiler music interlude";
        let s = snippet(text, "compiler music", 3);
        assert!(s.contains("compiler"), "{s}");
    }

    /// The page's terms as `Analyzer::counts` gives them, sorted: a
    /// position is an index into them.
    fn terms(page: &str) -> Vec<String> {
        let mut terms: Vec<String> = Analyzer.counts(page).into_keys().collect();
        terms.sort_unstable();
        terms
    }

    /// `text`'s word memo against `terms`.
    fn memo_of(text: &str, terms: &[String]) -> PageMemo {
        page_words(text, terms.len(), |stem| {
            terms.binary_search_by(|t| t.as_str().cmp(stem)).ok()
        })
        .expect("a memo")
    }

    /// `query`'s snippet of `text` from its word memo against `terms`.
    fn from_memo(text: &str, terms: &[String], query: &str, window: usize) -> Option<String> {
        let memo = memo_of(text, terms);
        let mut q = SnippetQuery::new(query);
        let stems = q.stems().to_vec();
        q.snippet_from_memo(text, &memo, |i| terms.binary_search(&stems[i]).ok(), window)
    }

    /// Terms "compil", "loop", "optim": each with the word whose first stem
    /// it is; "The" is a stopword no term stems to, "--" and "x" have no
    /// kept token.
    #[test]
    fn the_memo_lists_each_terms_words_and_each_words_start() {
        let text = "The compilers -- optimize x Loops";
        assert_eq!(
            memo_of(text, &terms(text)),
            PageMemo {
                // Ends, occurrences, starts.
                slots: Box::new([1, 2, 3, 1, 5, 3, 0, 4, 14, 17, 26, 28]),
                positions: 3,
                words: 6,
                text_len: 33,
                outside: true,
            }
        );
    }

    /// "page" is a stopword, so not among the page's terms, yet the query
    /// "pages" stems to it: only the text can say which words match.
    #[test]
    fn a_missing_stem_falls_back_only_when_a_word_is_outside_the_terms() {
        let text = "compiler notes on the page about loops";
        assert_eq!(from_memo(text, &terms(text), "pages", 3), None);
        assert_eq!(snippet(text, "pages", 3), "… on the page …");
        let plain = "compiler notes loops compiler";
        assert_eq!(
            from_memo(plain, &terms(plain), "pages loops", 2).as_deref(),
            Some(snippet(plain, "pages loops", 2).as_str())
        );
    }

    /// A text of 64 KiB, whose last word starts at 65 535, has a memo that
    /// reads the text walk's snippet, however its words are separated; a
    /// longer one has none, read alone or analysed as a page.
    #[test]
    fn a_text_of_64_kib_has_a_memo_and_a_longer_one_none() {
        const WORDS: [&str; 4] = ["music", "x", "garden", "organ"];
        let words = (0..20_000).map(|i| if i == 5_000 { "baroque" } else { WORDS[i % 4] });
        let words: Vec<&str> = words.collect();
        for gap in [" ", " \t"] {
            let mut text = words.join(gap);
            text.truncate(MAX_TEXT_LEN - 2);
            text.push_str(" y");
            assert_eq!(text.len(), MAX_TEXT_LEN);
            let terms = terms(&text);
            let memo = memo_of(&text, &terms);
            assert_eq!(memo.start(memo.words() - 1), Some(MAX_TEXT_LEN - 1));
            for query in ["baroque garden", "music", "zeppelin", "organ baroque"] {
                assert_eq!(
                    from_memo(&text, &terms, query, 12),
                    Some(snippet(&text, query, 12)),
                    "{query:?}, gap {gap:?}"
                );
            }
            text.push('z');
            assert_eq!(page_words(&text, terms.len(), |_| None), None);
            let mut vocab = crate::vocab::Vocabulary::new();
            assert_eq!(Analyzer.index_page(&mut vocab, "", &text).memo, None);
        }
    }

    /// A text of the memo's length whose bytes are not the memo's: a
    /// two-byte character straddles the start of every word but the first,
    /// so a window cut there is off a char boundary. The reader says so
    /// rather than panic or render a cut character.
    #[test]
    fn a_start_off_a_char_boundary_reads_nothing() {
        let text = "alpha beta gamma delta epsilon zeta eta theta";
        let terms = terms(text);
        let memo = memo_of(text, &terms);
        let mut bytes = text.as_bytes().to_vec();
        for at in text.match_indices(' ').map(|(at, _)| at) {
            bytes[at..at + 2].copy_from_slice("é".as_bytes());
        }
        let straddled =
            String::from_utf8(bytes).expect("every space and the letter after it became one é");
        let mut q = SnippetQuery::new("gamma eta");
        let stems = q.stems().to_vec();
        let at = |i: usize| terms.binary_search(&stems[i]).ok();
        assert!(q.snippet_from_memo(text, &memo, at, 3).is_some());
        let at = |i: usize| terms.binary_search(&stems[i]).ok();
        assert_eq!(q.snippet_from_memo(&straddled, &memo, at, 3), None);
    }
}
