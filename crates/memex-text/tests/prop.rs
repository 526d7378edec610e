//! Property tests for the text substrate: the tokenizer must never panic on
//! arbitrary input and must agree with the two-pass pipeline it replaced,
//! stemming must be idempotent-ish and shortening and the same in place as
//! owned, and the sparse-vector algebra must obey the usual laws.

use proptest::prelude::*;

use memex_text::stem::{stem, stem_in_place};
use memex_text::tokenize::{extract_hrefs, tokenize, Tokens, Words, MAX_TOKEN_LEN, MIN_TOKEN_LEN};
use memex_text::vector::{SparseVec, SumAccumulator};

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
    /// is let through.
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
        for word in html.split_whitespace() {
            let first = words(&strip_html(word)).into_iter().next();
            let first = first.as_deref().unwrap_or("");
            prop_assert_eq!(Tokens::new(word).next_into(&mut token), !first.is_empty());
            prop_assert_eq!(&token, first, "word {:?}", word);
            let offset = word.as_ptr() as usize - html.as_ptr() as usize;
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
