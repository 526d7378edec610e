//! Property tests for the text substrate: the tokenizer must never panic on
//! arbitrary input and must agree with the two-pass pipeline it replaced,
//! stemming must be idempotent-ish and shortening and the same in place as
//! owned, the one-probe archive analysis must number and count terms as
//! counting then interning did — and, reading a title and a text in place,
//! write the word memo the text walk would — and the sparse-vector algebra
//! must obey the usual laws.

use proptest::prelude::*;

use memex_text::snippet::{page_words, snippet, SnippetQuery};
use memex_text::stem::{stem, stem_in_place};
use memex_text::stopwords::is_stopword;
use memex_text::tokenize::{
    extract_hrefs, tokenize, word_start, Tokens, Words, MAX_TOKEN_LEN, MIN_TOKEN_LEN,
};
use memex_text::vector::{DotScratch, SparseVec, SumAccumulator};
use memex_text::{Analyzer, IndexedPage, TermId, Vocabulary};

/// The tokenizer as it was before it streamed, kept as the reference
/// [`Tokens`] is held to: first strip tags, comments and script/style
/// bodies and decode entities into a new string…
fn strip_html(input: &str) -> String {
    let mut out = String::with_capacity(input.len());
    let bytes = input.as_bytes();
    let mut i = 0usize;
    let lower = input.to_ascii_lowercase();
    while i < input.len() {
        if bytes[i] == b'<' {
            if lower[i..].starts_with("<!--") {
                match lower[i..].find("-->") {
                    Some(end) => {
                        i += end + 3;
                        out.push(' ');
                        continue;
                    }
                    None => break,
                }
            }
            let mut skipped_element = false;
            for elem in ["script", "style"] {
                if lower[i + 1..].starts_with(elem) {
                    let close = format!("</{elem}");
                    if let Some(end) = lower[i..].find(&close) {
                        let after = i + end;
                        if let Some(gt) = lower[after..].find('>') {
                            i = after + gt + 1;
                        } else {
                            i = input.len();
                        }
                    } else {
                        i = input.len();
                    }
                    out.push(' ');
                    skipped_element = true;
                    break;
                }
            }
            if skipped_element || i >= input.len() {
                continue;
            }
            match input[i..].find('>') {
                Some(end) => {
                    i += end + 1;
                    out.push(' ');
                }
                None => break,
            }
        } else if bytes[i] == b'&' {
            let rest = &input[i..];
            let decoded = [
                ("&amp;", "&"),
                ("&lt;", "<"),
                ("&gt;", ">"),
                ("&quot;", "\""),
                ("&apos;", "'"),
                ("&nbsp;", " "),
            ]
            .iter()
            .find(|(e, _)| rest.starts_with(e));
            match decoded {
                Some((e, r)) => {
                    out.push_str(r);
                    i += e.len();
                }
                None => {
                    let semi = rest.char_indices().take(8).find(|&(_, c)| c == ';');
                    match semi {
                        Some((j, _)) => i += j + 1,
                        None => i += 1,
                    }
                    out.push(' ');
                }
            }
        } else {
            let Some(ch) = input[i..].chars().next() else {
                break;
            };
            out.push(ch);
            i += ch.len_utf8();
        }
    }
    out
}

/// …then split the plain text into lower-cased, length-filtered words.
fn words(text: &str) -> Vec<String> {
    fn push_token(out: &mut Vec<String>, token: String) {
        let len = token.chars().count();
        if !(MIN_TOKEN_LEN..=MAX_TOKEN_LEN).contains(&len) {
            return;
        }
        if len > 4 && token.chars().all(|c| c.is_ascii_digit()) {
            return;
        }
        out.push(token);
    }
    let mut out = Vec::new();
    let mut current = String::new();
    for ch in text.chars() {
        if ch.is_alphanumeric() {
            for c in ch.to_lowercase() {
                current.push(c);
            }
        } else if !current.is_empty() {
            push_token(&mut out, std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        push_token(&mut out, current);
    }
    out
}

/// HTML soup: markup whole and broken, `<script>`/`<style>` in any case,
/// entities the old stripper decoded and ones it did not, unterminated `<`
/// and `&`, characters whose lower case is longer than they are, tokens at
/// both length limits, digit runs on both sides of the four-digit rule and
/// every kind of whitespace.
fn soup() -> impl Strategy<Value = String> {
    #[rustfmt::skip]
    const PARTS: &[&str] = &[
        "<", ">", "<b>", "</b>", "<a href=\"x y\">", "<P CLASS=intro>", "<unclosed",
        "<!--", "-->", "<!-- hidden words -->", "<!-->",
        "<script>", "<SCRIPT type=js>", "</script>", "</SCRIPT", "</script", "<scripture>",
        "<style>", "</Style>", "<sty",
        "&", ";", "&amp;", "&lt;", "&gt;", "&quot;", "&apos;", "&nbsp;",
        "&AMP;", "&copy;", "&#169;", "&toolongtobe;", "&é;", "&amp",
        "Über", "Straße", "İstanbul", "İİİİİİİİİİİİ", "世界", "λόγος", "ǅ", "K",
        "a", "ab", "xxxxxxxxxxxxxxxxxxxxxxxx", "xxxxxxxxxxxxxxxxxxxxxxxxx",
        "éééééééééééééééééééééééé", "ééééééééééééééééééééééééé",
        "1", "1999", "12345", "123456", "12a45", "\u{663}\u{663}\u{663}\u{663}\u{663}",
        " ", " ", " ", "\n", "\t", "\r\n", "\u{b}", "\u{85}", "\u{a0}", "\u{3000}",
        "-", ".", "'",
    ];
    let part = prop_oneof![
        3 => (0..PARTS.len()).prop_map(|i| PARTS[i].to_string()),
        1 => "[a-zA-Z0-9]{0,8}",
    ];
    proptest::collection::vec(part, 0..40).prop_map(|parts| parts.concat())
}

fn sparse_strategy() -> impl Strategy<Value = SparseVec> {
    proptest::collection::vec((0u32..64, -10.0f32..10.0), 0..24).prop_map(SparseVec::from_pairs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary (possibly malformed, possibly non-UTF8-ish) text never
    /// panics the HTML stripper or the tokenizer, and all produced tokens
    /// respect the length bounds.
    #[test]
    fn tokenizer_total_on_arbitrary_input(s in "\\PC{0,200}") {
        let _ = extract_hrefs(&s);
        for tok in tokenize(&s) {
            let n = tok.chars().count();
            prop_assert!((MIN_TOKEN_LEN..=MAX_TOKEN_LEN).contains(&n));
            prop_assert!(tok.chars().all(|c| c.is_alphanumeric()));
            prop_assert_eq!(tok.clone(), tok.to_lowercase());
        }
    }

    /// Adversarial tag soup specifically.
    #[test]
    fn tokenizer_total_on_tag_soup(parts in proptest::collection::vec(
        prop_oneof![
            Just("<".to_string()), Just(">".to_string()), Just("&".to_string()),
            Just("<script>".to_string()), Just("</script".to_string()),
            Just("<!--".to_string()), Just("-->".to_string()),
            Just("<style>".to_string()), Just("&amp;".to_string()),
            "[a-z ]{0,8}",
        ], 0..30)) {
        let soup: String = parts.concat();
        let _ = tokenize(&soup);
    }

    /// Stemming never lengthens an ASCII word and is idempotent on its own
    /// output for plural stripping (`stem(stem(w))` may differ for Porter in
    /// general, but must never panic and never grow).
    #[test]
    fn stem_shrinks_and_is_total(w in "[a-z]{1,20}") {
        let s1 = stem(&w);
        prop_assert!(s1.len() <= w.len());
        let s2 = stem(&s1);
        prop_assert!(s2.len() <= s1.len());
    }

    /// Plural forms conflate with their singular for regular nouns.
    #[test]
    fn regular_plurals_conflate(w in "[a-z]{3,10}") {
        prop_assume!(!w.ends_with('s') && !w.ends_with('e') && !w.ends_with('y'));
        let plural = format!("{w}s");
        prop_assert_eq!(stem(&plural), stem(&w));
    }

    /// Cosine is symmetric and bounded.
    #[test]
    fn cosine_symmetric_bounded(a in sparse_strategy(), b in sparse_strategy()) {
        let ab = a.cosine(&b);
        let ba = b.cosine(&a);
        prop_assert!((ab - ba).abs() < 1e-5);
        prop_assert!((-1.0..=1.0).contains(&ab));
        if !a.is_empty() {
            prop_assert!((a.cosine(&a) - 1.0).abs() < 1e-4);
        }
    }

    /// Addition is commutative and `get` agrees with it pointwise.
    #[test]
    fn addition_commutes(a in sparse_strategy(), b in sparse_strategy()) {
        let mut ab = a.clone();
        ab.add_assign(&b);
        let mut ba = b.clone();
        ba.add_assign(&a);
        for id in 0u32..64 {
            prop_assert!((ab.get(id) - ba.get(id)).abs() < 1e-4);
            prop_assert!((ab.get(id) - (a.get(id) + b.get(id))).abs() < 1e-4);
        }
        // Entries stay sorted and deduplicated.
        let ids: Vec<u32> = ab.entries().iter().map(|&(i, _)| i).collect();
        prop_assert!(ids.windows(2).all(|w| w[0] < w[1]));
    }

    /// The dense accumulator is the `add_assign` fold, bit for bit — also
    /// when a vector meets its own negation (entries cancel to zero and are
    /// dropped, as the merge drops them) and comes back later, and when one
    /// accumulator serves several sums in a row.
    #[test]
    fn sum_accumulator_equals_folding_add_assign(
        vectors in proptest::collection::vec((sparse_strategy(), any::<bool>()), 0..12),
        cut in 0usize..12,
    ) {
        let mut stream: Vec<SparseVec> = Vec::new();
        for (v, negated_too) in vectors {
            if negated_too {
                let mut minus = v.clone();
                minus.scale(-1.0);
                stream.push(minus);
            }
            stream.push(v);
        }
        let turn = cut % stream.len().max(1);
        stream.rotate_left(turn);
        let mut acc = SumAccumulator::default();
        let cut = cut.min(stream.len());
        for part in [&stream[..cut], &stream[cut..]] {
            let mut folded = SparseVec::new();
            for v in part {
                folded.add_assign(v);
                acc.add(v);
            }
            let bits = |s: &SparseVec| -> Vec<(u32, u32)> {
                s.entries().iter().map(|&(t, w)| (t, w.to_bits())).collect()
            };
            prop_assert_eq!(bits(&acc.take()), bits(&folded));
        }
    }

    /// `truncate_top` keeps what a full sort under its order keeps: `|w|`
    /// descending, then id ascending. Weights come from a short list, so
    /// magnitudes tie at the cut, and `k` runs from 0 past the length.
    #[test]
    fn truncate_top_equals_a_full_sort(
        pairs in proptest::collection::vec(
            (0u32..64, prop_oneof![Just(0.5f32), Just(-0.5), Just(1.0), Just(-1.0), Just(2.0), -3.0f32..3.0]),
            0..40,
        ),
        k in 0usize..48,
    ) {
        let v = SparseVec::from_pairs(pairs);
        let mut sorted = v.entries().to_vec();
        sorted.sort_by(|a, b| b.1.abs().total_cmp(&a.1.abs()).then(a.0.cmp(&b.0)));
        sorted.truncate(k);
        sorted.sort_by_key(|&(id, _)| id);
        let mut kept = v.clone();
        kept.truncate_top(k);
        prop_assert_eq!(kept.entries(), &sorted[..]);
    }

    /// A dot against a scattered vector is the sorted merge's, bit for bit,
    /// with one scratch reused vector after vector.
    #[test]
    fn scattered_dot_equals_the_merge(
        rows in proptest::collection::vec(sparse_strategy(), 1..6),
        others in proptest::collection::vec(sparse_strategy(), 0..6),
    ) {
        let mut scratch = DotScratch::default();
        for row in &rows {
            let scattered = scratch.scatter(row);
            for other in others.iter().chain(&rows) {
                prop_assert_eq!(scattered.dot(other).to_bits(), row.dot(other).to_bits());
            }
        }
    }

    /// dot(a, b) respects the Cauchy–Schwarz bound.
    #[test]
    fn cauchy_schwarz(a in sparse_strategy(), b in sparse_strategy()) {
        prop_assert!(a.dot(&b).abs() <= a.norm() * b.norm() + 1e-3);
    }

    /// Snippets never panic, never exceed the window (plus ellipses), and
    /// always consist of words from the source text.
    #[test]
    fn snippet_total_and_bounded(text in "[a-zA-Z ]{0,200}", query in "[a-zA-Z ]{0,40}", window in 1usize..20) {
        let s = memex_text::snippet::snippet(&text, &query, window);
        let content = s.trim_start_matches("… ").trim_end_matches(" …");
        let words: Vec<&str> = content.split_whitespace().collect();
        prop_assert!(words.len() <= window);
        let source: std::collections::HashSet<&str> = text.split_whitespace().collect();
        for w in words {
            prop_assert!(source.contains(w), "snippet word {w:?} not in source");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// One streaming pass reads what strip-then-split read: over a whole
    /// input, and over each whitespace-separated word of it on its own with
    /// only the first token taken, which is how a snippet reads a page —
    /// both a `Tokens` per word and the `Words` cursor that fuses the
    /// splitting with it. The token buffer is reused throughout, as the
    /// product reuses it. An open gate reads every token; a random one
    /// reads each token or nothing — and the token whenever its first byte
    /// is let through. `word_start` finds every word where the cursor did.
    #[test]
    fn streaming_tokenizer_equals_strip_then_split(
        html in soup(),
        gate in proptest::collection::vec(any::<bool>(), 256),
    ) {
        prop_assert_eq!(tokenize(&html), words(&strip_html(&html)), "input {:?}", html);
        let gate: [bool; 256] = gate.try_into().expect("256 bools");
        let mut token = String::from("left over");
        let mut cursor = Words::new(&html);
        let mut gated = Words::new(&html);
        let mut count = 0usize;
        for (n, word) in html.split_whitespace().enumerate() {
            let first = words(&strip_html(word)).into_iter().next();
            let first = first.as_deref().unwrap_or("");
            prop_assert_eq!(Tokens::new(word).next_into(&mut token), !first.is_empty());
            prop_assert_eq!(&token, first, "word {:?}", word);
            let offset = word.as_ptr() as usize - html.as_ptr() as usize;
            prop_assert_eq!(word_start(&html, n), offset, "word {} of {:?}", n, html);
            count = n + 1;
            prop_assert_eq!(cursor.next_into(&mut token, &[true; 256]), Some((offset, word)));
            prop_assert_eq!(&token, first, "word {:?}", word);
            prop_assert_eq!(gated.next_into(&mut token, &gate), Some((offset, word)));
            let let_through = first.bytes().next().is_some_and(|b| gate[usize::from(b)]);
            prop_assert!(
                token == first || (token.is_empty() && !let_through),
                "word {:?}: {:?} through the gate, {:?} without", word, token, first
            );
        }
        prop_assert_eq!(cursor.next_into(&mut token, &[true; 256]), None);
        prop_assert_eq!(gated.next_into(&mut token, &gate), None);
        prop_assert_eq!(word_start(&html, count), html.len());
        prop_assert_eq!(word_start(&html, count + 3), html.len());
    }

    /// `word_start` finds every word where `split_whitespace` does: runs of
    /// ASCII long enough for its eight-byte steps, every ASCII whitespace
    /// byte and control characters that are not whitespace beside them,
    /// and wider characters, whitespace or not, anywhere in a step.
    #[test]
    fn word_start_finds_every_word(
        text in "[ab \t\n\u{b}\u{c}\r\u{1c}\u{1f}\u{7f}é\u{a0}\u{85}\u{3000}]{0,80}",
    ) {
        let mut count = 0usize;
        for (n, word) in text.split_whitespace().enumerate() {
            let offset = word.as_ptr() as usize - text.as_ptr() as usize;
            prop_assert_eq!(word_start(&text, n), offset, "word {} of {:?}", n, text);
            count = n + 1;
        }
        prop_assert_eq!(word_start(&text, count), text.len(), "{:?}", text);
    }

    /// A snippet stems only the tokens whose first byte some query stem
    /// starts with: exact, because stemming never changes byte 0 — any
    /// lower-case word, and any token the tokenizer can produce.
    #[test]
    fn stemming_keeps_the_first_byte(w in "[a-z]{1,20}", html in soup()) {
        for token in tokenize(&html).into_iter().chain([w]) {
            let mut buf = token.clone();
            stem_in_place(&mut buf);
            prop_assert_eq!(buf.bytes().next(), token.bytes().next(), "token {:?}", token);
        }
    }

    /// Stemming in place is stemming: any lower-case word, and any token
    /// the tokenizer can produce (digits, non-ASCII and one- or two-byte
    /// tokens come back untouched).
    #[test]
    fn stem_in_place_equals_stem(w in "[a-z]{0,20}", html in soup()) {
        for token in tokenize(&html).into_iter().chain([w]) {
            let mut buf = token.clone();
            stem_in_place(&mut buf);
            prop_assert_eq!(&buf, &stem(&token), "token {:?}", token);
            if token.len() <= 2 || !token.bytes().all(|b| b.is_ascii_lowercase()) {
                prop_assert_eq!(&buf, &token);
            }
        }
    }
}

/// `snippet` as it was before it slid its window: every window position
/// rescanned, its distinct stems collected into a fresh set. Kept as the
/// reference the sliding version is held to.
fn snippet_by_rescan(text: &str, query: &str, window: usize) -> String {
    use std::collections::HashSet;
    let window = window.max(1);
    let display: Vec<&str> = text.split_whitespace().collect();
    if display.is_empty() {
        return String::new();
    }
    let query_stems: HashSet<String> = tokenize(query)
        .into_iter()
        .filter(|w| !is_stopword(w))
        .map(|w| stem(&w))
        .collect();
    let stems: Vec<Option<String>> = display
        .iter()
        .map(|w| tokenize(w).first().map(|t| stem(t)))
        .collect();
    let is_hit: Vec<bool> = stems
        .iter()
        .map(|s| s.as_ref().is_some_and(|s| query_stems.contains(s)))
        .collect();
    let mut best_start = 0usize;
    let mut best_score = (0usize, 0usize);
    let n = display.len();
    let w = window.min(n);
    for start in 0..=(n - w) {
        let mut distinct = HashSet::new();
        let mut total = 0usize;
        for i in start..start + w {
            if is_hit[i] {
                total += 1;
                if let Some(s) = &stems[i] {
                    distinct.insert(s.clone());
                }
            }
        }
        let score = (distinct.len(), total);
        if score > best_score {
            best_score = score;
            best_start = start;
        }
    }
    let mut out = String::new();
    if best_start > 0 {
        out.push_str("… ");
    }
    out.push_str(&display[best_start..best_start + w].join(" "));
    if best_start + w < n {
        out.push_str(" …");
    }
    out
}

/// The snippet alphabet. Words that collide at stem level, punctuation, a
/// token `tokenize` splits in two and one it drops, and every kind of
/// whitespace `split_whitespace` breaks a word at; then, from
/// [`OUTSIDE_FROM`] on, the words that can put a word of a page's memo
/// outside its terms: stopwords, "page" (a stopword that "Pages" stems
/// to), and a tag opened in one word and closed in a later one (a page
/// analysed whole does not say "href" inside `<a href=…>`, a word read on
/// its own does).
const WORDS: [&str; 26] = [
    "compiler",
    "Compilers",
    "optimizes",
    "optimization,",
    "music",
    "musical",
    "baroque",
    "loop",
    "loops.",
    "inner-loop",
    "garden",
    "Pages",
    "x",
    "--",
    "<b>bold</b>",
    "Über-garden",
    "music\u{a0}garden",
    "loop\u{3000}\u{2003}compiler",
    "baroque\tmusic\nloops\r\n",
    "\u{b}garden\u{c}",
    "\u{85}",
    "the",
    "of",
    "page",
    "<a",
    "href=loop>garden",
];
const OUTSIDE_FROM: usize = 21;

/// Up to `max` words of the alphabet, its outside makers included or not.
fn snippet_text(max: usize, outside: bool) -> impl Strategy<Value = String> {
    let alphabet = if outside { WORDS.len() } else { OUTSIDE_FROM };
    proptest::collection::vec(0..alphabet, 0..max).prop_map(|picks| {
        picks
            .iter()
            .map(|&i| WORDS[i])
            .collect::<Vec<_>>()
            .join(" ")
    })
}

/// What [`separated_text`] puts between two words, or before the first or
/// after the last: one space or any other blank. A word memo cuts each word
/// of a window from its start to the next word's, so whatever the blank —
/// a lone tab is one byte, like a space — it must render the text walk's
/// single space.
const SEPARATORS: [&str; 7] = [" ", "  ", "\t", "\n", "\u{a0}", "\u{3000}", " \u{2003} "];

/// Up to `max` words of the alphabet with no blank inside, its outside
/// makers included or not, separated by [`SEPARATORS`]: one space between
/// each two but one gap, where any separator goes, or any separator in
/// every gap; and a separator before the first word and after the last,
/// or not.
fn separated_text(max: usize, outside: bool) -> impl Strategy<Value = String> {
    let alphabet = if outside {
        &WORDS[..]
    } else {
        &WORDS[..OUTSIDE_FROM]
    };
    let bare: Vec<&str> = alphabet
        .iter()
        .copied()
        .filter(|word| !word.contains(char::is_whitespace))
        .collect();
    let words = proptest::collection::vec((0..bare.len(), 0..SEPARATORS.len()), 0..max);
    let end = || prop_oneof![3 => Just(None), 1 => (0..SEPARATORS.len()).prop_map(Some)];
    let shape = (any::<bool>(), 0..max.max(1));
    (words, shape, end(), end()).prop_map(move |(words, (mixed, odd), lead, trail)| {
        let mut text = String::new();
        text.extend(lead.map(|s| SEPARATORS[s]));
        for (k, &(word, gap)) in words.iter().enumerate() {
            if k > 0 {
                text.push_str(if mixed || k == odd {
                    SEPARATORS[gap]
                } else {
                    " "
                });
            }
            text.push_str(bare[word]);
        }
        text.extend(trail.map(|s| SEPARATORS[s]));
        text
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Empty texts, empty queries and windows past the end included.
    #[test]
    fn sliding_window_equals_the_rescan(
        text in snippet_text(40, true),
        query in snippet_text(5, true),
        window in 0usize..50,
    ) {
        prop_assert_eq!(
            snippet(&text, &query, window),
            snippet_by_rescan(&text, &query, window),
            "text {:?} query {:?} window {}", text, query, window
        );
    }

    /// The word memo reads what the text walk reads. The page's terms are
    /// those of a title and the text analysed together, as an archived
    /// page's are; the query may name stems the page lacks (words of the
    /// alphabet it does not use, a word of no page, "Pages" beside a
    /// stopword "page"), on texts with and without words outside the
    /// terms, whose words one space separates or any blanks, leading and
    /// trailing ones too. The memo answers unless a stem is missing and a word is
    /// outside, and then it answers the text walk's snippet.
    #[test]
    fn the_word_memo_reads_what_the_text_walk_reads(
        text in prop_oneof![
            snippet_text(40, false),
            snippet_text(40, true),
            separated_text(40, false),
            separated_text(40, true),
        ],
        title in snippet_text(6, true),
        query in snippet_text(5, true),
        extra in 0usize..3,
        window in 0usize..50,
    ) {
        let mut terms: Vec<String> = Analyzer.counts(&format!("{title} {text}")).into_keys().collect();
        terms.sort_unstable();
        let position = |stem: &str| terms.binary_search_by(|t| t.as_str().cmp(stem)).ok();
        let memo = page_words(&text, terms.len(), position).expect("a memo");
        prop_assert_eq!(memo.words(), text.split_whitespace().count());
        prop_assert_eq!(memo.text_len(), text.len());
        let query = format!("{query} {}", ["", "zeppelin", "Pages"][extra]);
        let mut analysed = SnippetQuery::new(&query);
        let stems = analysed.stems().to_vec();
        let missing = stems.iter().any(|s| position(s).is_none());
        let walked = snippet(&text, &query, window);
        match analysed.snippet_from_memo(&text, &memo, |i| position(&stems[i]), window) {
            Some(read) => prop_assert_eq!(
                read, walked, "text {:?} title {:?} query {:?} window {}", text, title, query, window
            ),
            None => prop_assert!(
                missing && memo.outside(),
                "text {:?} title {:?} query {:?}: fell back with every stem found or no word outside",
                text, title, query
            ),
        }
    }

    /// The window chosen from the memo's hits alone is the rescan's at the
    /// edges of the window's range: 0 and 1, one word short of the text,
    /// exactly the text, past it; and for a query no word matches.
    #[test]
    fn the_window_from_hits_equals_the_rescan_at_the_edges(
        text in prop_oneof![snippet_text(30, false), separated_text(30, false)],
        query in snippet_text(4, false),
        no_hits in any::<bool>(),
    ) {
        let mut terms: Vec<String> = Analyzer.counts(&text).into_keys().collect();
        terms.sort_unstable();
        let position = |stem: &str| terms.binary_search_by(|t| t.as_str().cmp(stem)).ok();
        let memo = page_words(&text, terms.len(), position).expect("a memo");
        let query = if no_hits { "zeppelin".to_string() } else { query };
        let mut analysed = SnippetQuery::new(&query);
        let stems = analysed.stems().to_vec();
        let n = memo.words();
        for window in [0, 1, n.saturating_sub(1), n, n + 1, 40] {
            let read = analysed.snippet_from_memo(&text, &memo, |i| position(&stems[i]), window);
            prop_assert_eq!(
                read, Some(snippet_by_rescan(&text, &query, window)),
                "text {:?} query {:?} window {}", text, query, window
            );
        }
    }
}

/// `Analyzer::index_document` as it was before it probed the vocabulary
/// once per term: count the page, intern its terms sorted by string, sort
/// the pairs by id, record the document. Kept as the reference the one-probe
/// walk is held to.
fn index_by_counting(vocab: &mut Vocabulary, text: &str) -> Vec<(TermId, u32)> {
    let counts = Analyzer.counts(text);
    let mut terms: Vec<(&String, &u32)> = counts.iter().collect();
    terms.sort_unstable();
    let mut pairs: Vec<(TermId, u32)> = terms
        .into_iter()
        .map(|(term, &count)| (vocab.intern(term), count))
        .collect();
    pairs.sort_unstable_by_key(|&(id, _)| id);
    vocab.observe_doc(pairs.iter().map(|&(id, _)| id));
    pairs
}

/// A page for the analysis stream: HTML soup, or words from a small pool
/// so terms repeat within a page and across pages — stem variants,
/// stopwords, non-ASCII words and markup among them — or nothing at all.
fn page_text() -> impl Strategy<Value = String> {
    #[rustfmt::skip]
    const POOL: &[&str] = &[
        "the", "and", "of", "a", "is", "music", "musical", "musician", "Music",
        "compilers", "compiler", "compiling", "organ", "organs", "zebra", "apple",
        "Über", "straße", "世界", "λόγος", "<b>bach</b>", "<!-- hidden -->", "fugue,",
        "1999", "123456", "inner-loop",
    ];
    prop_oneof![
        2 => soup(),
        2 => proptest::collection::vec(0..POOL.len(), 0..30)
            .prop_map(|picks| picks.iter().map(|&i| POOL[i]).collect::<Vec<_>>().join(" ")),
        1 => Just(String::new()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Fed the same stream of pages — some of them again later — the
    /// one-probe walk and counting-then-interning give every page the same
    /// pairs and leave the two vocabularies the same: the same terms under
    /// the same ids, the same document frequencies, the same document count.
    #[test]
    fn index_document_equals_counting_then_interning(
        pages in proptest::collection::vec(page_text(), 1..10),
        again in proptest::collection::vec(0usize..10, 0..4),
    ) {
        let repeats = again.iter().map(|&i| pages[i % pages.len()].clone());
        let stream: Vec<String> = pages.iter().cloned().chain(repeats).collect();
        let (mut walked, mut counted) = (Vocabulary::new(), Vocabulary::new());
        for text in &stream {
            let pairs = Analyzer.index_document(&mut walked, text);
            prop_assert_eq!(&pairs, &index_by_counting(&mut counted, text), "page {:?}", text);
            prop_assert_eq!(walked.len(), counted.len());
            for id in 0..walked.len() as TermId {
                prop_assert_eq!(walked.term(id), counted.term(id), "term {}", id);
                prop_assert_eq!(walked.df(id), counted.df(id), "df of term {}", id);
            }
            prop_assert_eq!(walked.num_docs(), counted.num_docs());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Fed the same stream of titled pages — some of them again later — the
    /// walk that reads a title and a text in place and `index_document` of
    /// `"{title} {text}"` give every page the same pairs and leave the two
    /// vocabularies the same; and the walk's word memo is, field for field,
    /// `page_words` of the text against those pairs: each term's words,
    /// each word's start, the outside bit, the counts. Texts
    /// have stopwords (one a term stems to), markup opened in one word and
    /// closed in a later one, non-ASCII words and blanks of every kind
    /// between words and around them, or are HTML soup; titles have markup
    /// too, so both of the walk's ways through a page are taken.
    #[test]
    fn index_page_equals_index_document_of_title_and_text_and_page_words(
        pages in proptest::collection::vec(
            (
                page_text(),
                prop_oneof![
                    2 => snippet_text(40, true),
                    2 => separated_text(40, true),
                    1 => page_text(),
                ],
            ),
            1..10,
        ),
        again in proptest::collection::vec(0usize..10, 0..4),
    ) {
        let repeats = again.iter().map(|&i| pages[i % pages.len()].clone());
        let stream: Vec<(String, String)> = pages.iter().cloned().chain(repeats).collect();
        let (mut walked, mut whole) = (Vocabulary::new(), Vocabulary::new());
        for (title, text) in &stream {
            let IndexedPage { tf: pairs, memo } = Analyzer.index_page(&mut walked, title, text);
            let expected = Analyzer.index_document(&mut whole, &format!("{title} {text}"));
            prop_assert_eq!(&pairs, &expected, "title {:?} text {:?}", title, text);
            prop_assert_eq!(walked.len(), whole.len());
            for id in 0..walked.len() as TermId {
                prop_assert_eq!(walked.term(id), whole.term(id), "term {}", id);
                prop_assert_eq!(walked.df(id), whole.df(id), "df of term {}", id);
            }
            prop_assert_eq!(walked.num_docs(), whole.num_docs());
            let reference = page_words(text, expected.len(), |stem| {
                let id = whole.id(stem)?;
                expected.binary_search_by_key(&id, |&(t, _)| t).ok()
            });
            prop_assert!(reference.is_some());
            prop_assert_eq!(memo, reference, "title {:?} text {:?}", title, text);
        }
    }
}
