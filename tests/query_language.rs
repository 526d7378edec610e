//! End-to-end query-language test: the search-box syntax over a corpus
//! indexed through the full analyzer pipeline (positions included).

use memex::index::index::InvertedIndex;
use memex::index::query::{execute, Query};
use memex::text::analyze::Analyzer;
use memex::text::vocab::Vocabulary;
use memex::web::corpus::{Corpus, CorpusConfig};

#[test]
fn search_box_syntax_over_an_analyzed_corpus() {
    let corpus = Corpus::generate(CorpusConfig {
        num_topics: 3,
        pages_per_topic: 30,
        ..CorpusConfig::default()
    });
    let analyzer = Analyzer::default();
    let mut vocab = Vocabulary::new();
    let mut index = InvertedIndex::open_memory().unwrap();
    for p in &corpus.pages {
        let full = format!("{} {}", p.title, p.text);
        analyzer.index_document(&mut vocab, &full);
        let seq = analyzer.intern_sequence(&mut vocab, &full);
        index.add_document_positional(p.id, &seq).unwrap();
    }
    index.commit().unwrap();

    // Topic names are two words, e.g. "classical music": ranked search
    // for the name should surface that topic.
    let name0 = corpus.topic_names[0].clone();
    let q = Query::parse(&name0);
    let hits = execute(&index, &vocab, &analyzer, &q, 10).unwrap();
    assert!(!hits.is_empty());
    let on_topic = hits.iter().filter(|h| corpus.topic_of(h.doc) == 0).count();
    assert!(on_topic * 2 > hits.len(), "ranked hits mostly on topic 0");

    // Exclusion: remove a topic-0 anchor word and topic-0 pages vanish
    // from the results for a generic shared term.
    let anchor = name0.split_whitespace().next().unwrap();
    let q = Query::parse(&format!("common0 -{anchor}"));
    let hits = execute(&index, &vocab, &analyzer, &q, 20).unwrap();
    for h in &hits {
        let text = format!(
            "{} {}",
            corpus.pages[h.doc as usize].title, corpus.pages[h.doc as usize].text
        );
        let stems: Vec<String> = analyzer.term_sequence(&text);
        let banned = analyzer.term_sequence(anchor);
        for b in &banned {
            assert!(
                !stems.contains(b),
                "excluded term {b} present in hit {}",
                h.doc
            );
        }
    }

    // Phrase: a literal two-word run from a real page must be findable.
    let page = &corpus.pages[corpus.pages.iter().position(|p| !p.is_front).unwrap()];
    let words: Vec<&str> = page.text.split_whitespace().take(2).collect();
    let q = Query::parse(&format!("\"{} {}\"", words[0], words[1]));
    let hits = execute(&index, &vocab, &analyzer, &q, 50).unwrap();
    assert!(
        hits.iter().any(|h| h.doc == page.id),
        "phrase {:?} should find its source page",
        words
    );

    // Must-term: +word restricts to documents containing it.
    let q = Query::parse(&format!("common1 +{anchor}"));
    let hits = execute(&index, &vocab, &analyzer, &q, 20).unwrap();
    let anchor_stem = &analyzer.term_sequence(anchor)[0];
    for h in &hits {
        let text = format!(
            "{} {}",
            corpus.pages[h.doc as usize].title, corpus.pages[h.doc as usize].text
        );
        assert!(analyzer.term_sequence(&text).contains(anchor_stem));
    }
}
