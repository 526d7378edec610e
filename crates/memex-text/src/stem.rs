//! The Porter stemming algorithm (Porter, 1980) — the standard suffix
//! stripper of 1990s IR systems and the one a 2000-era Memex server would
//! have used for its keyword index and classifiers.
//!
//! This is a faithful implementation of the five-step algorithm operating
//! on ASCII lowercase; any other token is left unchanged (stemming rules
//! are English-specific). [`stem_in_place`] rewrites the caller's buffer —
//! every step only truncates it or appends ASCII, so the analysis paths
//! stem the token they just read without allocating; [`stem`] is the
//! owning wrapper.

/// Stem one lower-cased token.
pub fn stem(word: &str) -> String {
    let mut w = word.to_owned();
    stem_in_place(&mut w);
    w
}

/// Stem the lower-cased token in `w`, in place.
pub fn stem_in_place(w: &mut String) {
    if w.len() <= 2 || !w.bytes().all(|b| b.is_ascii_lowercase()) {
        return;
    }
    step1a(w);
    step1b(w);
    step1c(w);
    step2(w);
    step3(w);
    step4(w);
    step5a(w);
    step5b(w);
}

/// Is `w[i]` a consonant (in the Porter sense)?
fn is_cons(w: &[u8], i: usize) -> bool {
    match w[i] {
        b'a' | b'e' | b'i' | b'o' | b'u' => false,
        b'y' => i == 0 || !is_cons(w, i - 1),
        _ => true,
    }
}

/// The *measure* m of the stem `w[..len]`: the number of VC sequences.
fn measure(w: &[u8], len: usize) -> usize {
    let mut m = 0;
    let mut i = 0;
    // Skip initial consonants.
    while i < len && is_cons(w, i) {
        i += 1;
    }
    loop {
        // Vowel run.
        while i < len && !is_cons(w, i) {
            i += 1;
        }
        if i >= len {
            return m;
        }
        // Consonant run -> one VC.
        while i < len && is_cons(w, i) {
            i += 1;
        }
        m += 1;
        if i >= len {
            return m;
        }
    }
}

/// Does the stem `w[..len]` contain a vowel?
fn has_vowel(w: &[u8], len: usize) -> bool {
    (0..len).any(|i| !is_cons(w, i))
}

/// Does `w[..len]` end with a double consonant?
fn ends_double_cons(w: &[u8], len: usize) -> bool {
    len >= 2 && w[len - 1] == w[len - 2] && is_cons(w, len - 1)
}

/// cvc test at the end of `w[..len]` where the final c is not w, x or y.
fn ends_cvc(w: &[u8], len: usize) -> bool {
    if len < 3 {
        return false;
    }
    is_cons(w, len - 3)
        && !is_cons(w, len - 2)
        && is_cons(w, len - 1)
        && !matches!(w[len - 1], b'w' | b'x' | b'y')
}

/// If the word ends with `suffix` and the remaining stem has measure > `m`,
/// replace the suffix with `replacement`.
fn replace_if_m(w: &mut String, suffix: &str, replacement: &str, m: usize) {
    if !w.ends_with(suffix) {
        return;
    }
    let stem_len = w.len() - suffix.len();
    if measure(w.as_bytes(), stem_len) > m {
        w.truncate(stem_len);
        w.push_str(replacement);
    }
}

fn step1a(w: &mut String) {
    if w.ends_with("sses") || w.ends_with("ies") {
        w.truncate(w.len() - 2);
    } else if w.ends_with("ss") {
        // unchanged
    } else if w.ends_with('s') {
        w.truncate(w.len() - 1);
    }
}

fn step1b(w: &mut String) {
    if w.ends_with("eed") {
        if measure(w.as_bytes(), w.len() - 3) > 0 {
            w.truncate(w.len() - 1);
        }
        return;
    }
    let stripped = if w.ends_with("ed") && has_vowel(w.as_bytes(), w.len() - 2) {
        w.truncate(w.len() - 2);
        true
    } else if w.ends_with("ing") && has_vowel(w.as_bytes(), w.len() - 3) {
        w.truncate(w.len() - 3);
        true
    } else {
        false
    };
    if stripped {
        let b = w.as_bytes();
        if w.ends_with("at") || w.ends_with("bl") || w.ends_with("iz") {
            w.push('e');
        } else if ends_double_cons(b, b.len()) && !matches!(b[b.len() - 1], b'l' | b's' | b'z') {
            w.truncate(w.len() - 1);
        } else if measure(b, b.len()) == 1 && ends_cvc(b, b.len()) {
            w.push('e');
        }
    }
}

fn step1c(w: &mut String) {
    if w.ends_with('y') && has_vowel(w.as_bytes(), w.len() - 1) {
        w.pop();
        w.push('i');
    }
}

fn step2(w: &mut String) {
    const RULES: &[(&str, &str)] = &[
        ("ational", "ate"),
        ("tional", "tion"),
        ("enci", "ence"),
        ("anci", "ance"),
        ("izer", "ize"),
        ("abli", "able"),
        ("alli", "al"),
        ("entli", "ent"),
        ("eli", "e"),
        ("ousli", "ous"),
        ("ization", "ize"),
        ("ation", "ate"),
        ("ator", "ate"),
        ("alism", "al"),
        ("iveness", "ive"),
        ("fulness", "ful"),
        ("ousness", "ous"),
        ("aliti", "al"),
        ("iviti", "ive"),
        ("biliti", "ble"),
    ];
    for (suffix, replacement) in RULES {
        if w.ends_with(suffix) {
            replace_if_m(w, suffix, replacement, 0);
            return;
        }
    }
}

fn step3(w: &mut String) {
    const RULES: &[(&str, &str)] = &[
        ("icate", "ic"),
        ("ative", ""),
        ("alize", "al"),
        ("iciti", "ic"),
        ("ical", "ic"),
        ("ful", ""),
        ("ness", ""),
    ];
    for (suffix, replacement) in RULES {
        if w.ends_with(suffix) {
            replace_if_m(w, suffix, replacement, 0);
            return;
        }
    }
}

fn step4(w: &mut String) {
    const SUFFIXES: &[&str] = &[
        "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement", "ment", "ent", "ou",
        "ism", "ate", "iti", "ous", "ive", "ize",
    ];
    // "ion" requires the stem to end in s or t.
    if w.ends_with("ion") {
        let b = w.as_bytes();
        let stem_len = b.len() - 3;
        if stem_len > 0 && matches!(b[stem_len - 1], b's' | b't') && measure(b, stem_len) > 1 {
            w.truncate(stem_len);
        }
        return;
    }
    for suffix in SUFFIXES {
        if w.ends_with(suffix) {
            replace_if_m(w, suffix, "", 1);
            return;
        }
    }
}

fn step5a(w: &mut String) {
    if w.ends_with('e') {
        let stem_len = w.len() - 1;
        let m = measure(w.as_bytes(), stem_len);
        if m > 1 || (m == 1 && !ends_cvc(w.as_bytes(), stem_len)) {
            w.truncate(stem_len);
        }
    }
}

fn step5b(w: &mut String) {
    let b = w.as_bytes();
    if measure(b, b.len()) > 1 && ends_double_cons(b, b.len()) && b[b.len() - 1] == b'l' {
        w.truncate(w.len() - 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Vectors from Porter's original paper and the canonical test set.
    #[test]
    fn canonical_vectors() {
        let cases = [
            ("caresses", "caress"),
            ("ponies", "poni"),
            ("ties", "ti"),
            ("caress", "caress"),
            ("cats", "cat"),
            ("feed", "feed"),
            ("agreed", "agre"),
            ("plastered", "plaster"),
            ("bled", "bled"),
            ("motoring", "motor"),
            ("sing", "sing"),
            ("conflated", "conflat"),
            ("troubled", "troubl"),
            ("sized", "size"),
            ("hopping", "hop"),
            ("tanned", "tan"),
            ("falling", "fall"),
            ("hissing", "hiss"),
            ("fizzed", "fizz"),
            ("failing", "fail"),
            ("filing", "file"),
            ("happy", "happi"),
            ("sky", "sky"),
            ("relational", "relat"),
            ("conditional", "condit"),
            ("rational", "ration"),
            ("valenci", "valenc"),
            ("digitizer", "digit"),
            ("conformabli", "conform"),
            ("radicalli", "radic"),
            ("differentli", "differ"),
            ("vileli", "vile"),
            ("analogousli", "analog"),
            ("vietnamization", "vietnam"),
            ("predication", "predic"),
            ("operator", "oper"),
            ("feudalism", "feudal"),
            ("decisiveness", "decis"),
            ("hopefulness", "hope"),
            ("callousness", "callous"),
            ("formaliti", "formal"),
            ("sensitiviti", "sensit"),
            ("sensibiliti", "sensibl"),
            ("triplicate", "triplic"),
            ("formative", "form"),
            ("formalize", "formal"),
            // Note: Porter's paper shows "electriciti -> electric" as a
            // *step-3* example; the full algorithm's step 4 then strips the
            // "-ic", so end-to-end output is "electr" (matches the official
            // reference implementation's output vocabulary).
            ("electriciti", "electr"),
            ("electrical", "electr"),
            ("hopeful", "hope"),
            ("goodness", "good"),
            ("revival", "reviv"),
            ("allowance", "allow"),
            ("inference", "infer"),
            ("airliner", "airlin"),
            ("gyroscopic", "gyroscop"),
            ("adjustable", "adjust"),
            ("defensible", "defens"),
            ("irritant", "irrit"),
            ("replacement", "replac"),
            ("adjustment", "adjust"),
            ("dependent", "depend"),
            ("adoption", "adopt"),
            ("communism", "commun"),
            ("activate", "activ"),
            ("angulariti", "angular"),
            ("homologous", "homolog"),
            ("effective", "effect"),
            ("bowdlerize", "bowdler"),
            ("probate", "probat"),
            ("rate", "rate"),
            ("cease", "ceas"),
            ("controll", "control"),
            ("roll", "roll"),
        ];
        for (input, expected) in cases {
            assert_eq!(stem(input), expected, "stem({input})");
        }
    }

    #[test]
    fn topical_words_conflate() {
        // Words that must map to one stem for topic statistics to pool.
        assert_eq!(stem("compiler"), stem("compilers"));
        assert_eq!(stem("optimization"), stem("optimizations"));
        assert_eq!(stem("browsing"), stem("browsed"));
        assert_eq!(stem("classical"), stem("classic"));
    }

    #[test]
    fn short_and_non_ascii_untouched() {
        assert_eq!(stem("go"), "go");
        assert_eq!(stem("a"), "a");
        assert_eq!(stem("über"), "über");
        assert_eq!(stem("naïve"), "naïve");
    }

    #[test]
    fn measure_examples() {
        // From the paper: tr=0, ee=0, tree=0, y=0, by=0; trouble=1, oats=1,
        // trees=1, ivy=1; troubles=2, private=2, oaten=2.
        let m = |s: &str| measure(s.as_bytes(), s.len());
        assert_eq!(m("tr"), 0);
        assert_eq!(m("tree"), 0);
        assert_eq!(m("by"), 0);
        assert_eq!(m("trouble"), 1);
        assert_eq!(m("oats"), 1);
        assert_eq!(m("ivy"), 1);
        assert_eq!(m("troubles"), 2);
        assert_eq!(m("private"), 2);
        assert_eq!(m("oaten"), 2);
    }
}
