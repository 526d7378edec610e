//! **F1 — Figure 1, the folder tab:** "The classification demon then
//! classifies all subsequent history elements, marking its guesses by '?'.
//! The user can correct or reinforce the classifier using cut/paste, thus
//! continually improving Memex's models for the user's topics of
//! interest."
//!
//! We measure exactly that loop: seed the folder space with a handful of
//! bookmarks, let the demon guess the rest of the history, then simulate
//! rounds in which the user fixes a batch of wrong guesses (cut/paste) and
//! confirms a batch of right ones — accuracy per round should climb.

use memex_core::folders::FolderSpace;
use memex_learn::taxonomy::TopicId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::table::{pct, Table};
use crate::worlds::standard_corpus;

/// Accuracy of the demon's guesses over one user's history per feedback
/// round.
pub fn feedback_curve(quick: bool, seed: u64, rounds: usize, fixes_per_round: usize) -> Vec<f64> {
    let corpus = standard_corpus(quick, seed);
    let analyzed = corpus.analyze();
    let num_topics = corpus.config.num_topics;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xFEED);
    // The user's history: a sample of interior+front pages of all topics.
    let mut history: Vec<u32> = (0..corpus.num_pages() as u32).collect();
    history.shuffle(&mut rng);
    history.truncate(corpus.num_pages() / 2);
    // Folder space with one folder per topic; seed with 2 bookmarks each.
    let mut fs = FolderSpace::new();
    let folders: Vec<TopicId> = (0..num_topics)
        .map(|t| fs.add_folder(&format!("/{}", corpus.topic_names[t])))
        .collect();
    let mut seeded = vec![0usize; num_topics];
    let mut rest: Vec<u32> = Vec::new();
    for &p in &history {
        let t = corpus.topic_of(p);
        if seeded[t] < 2 && !corpus.pages[p as usize].is_front {
            fs.bookmark(p, folders[t], analyzed.tf[p as usize].as_slice());
            seeded[t] += 1;
        } else {
            rest.push(p);
        }
    }
    let mut curve = Vec::with_capacity(rounds + 1);
    for round in 0..=rounds {
        // The demon (re)classifies the unconfirmed history.
        let mut wrong: Vec<(u32, usize)> = Vec::new();
        let mut right: Vec<u32> = Vec::new();
        let mut correct = 0usize;
        for &p in &rest {
            if fs.assignment(p).is_some_and(|a| a.confirmed) {
                correct += 1; // the user already filed it
                continue;
            }
            let truth = corpus.topic_of(p);
            match fs.classify(p, &analyzed.tf[p as usize]) {
                Some(f) if f == folders[truth] => {
                    correct += 1;
                    right.push(p);
                }
                _ => wrong.push((p, truth)),
            }
        }
        curve.push(correct as f64 / rest.len().max(1) as f64);
        if round == rounds {
            break;
        }
        // The user fixes a batch of wrong guesses (cut/paste = a bookmark
        // into the right folder) and reinforces a batch of right ones
        // (confirm()).
        wrong.shuffle(&mut rng);
        for &(p, truth) in wrong.iter().take(fixes_per_round) {
            fs.bookmark(p, folders[truth], analyzed.tf[p as usize].as_slice());
        }
        right.shuffle(&mut rng);
        for &p in right.iter().take(fixes_per_round) {
            fs.confirm(p, analyzed.tf[p as usize].as_slice());
        }
    }
    curve
}

/// The F1 table: accuracy per feedback round.
pub fn run(quick: bool) -> Table {
    let rounds = 6;
    let fixes = if quick { 8 } else { 15 };
    let curve = feedback_curve(quick, 11, rounds, fixes);
    let mut table = Table::new(
        "F1: folder-tab feedback loop — demon accuracy per round",
        &[
            "round",
            "corrections+confirmations so far",
            "history accuracy",
        ],
    );
    for (r, acc) in curve.iter().enumerate() {
        table.row(vec![r.to_string(), (r * 2 * fixes).to_string(), pct(*acc)]);
    }
    let first = curve.first().copied().unwrap_or(0.0);
    let last = curve.last().copied().unwrap_or(0.0);
    table.note(&format!(
        "accuracy climbs {} -> {} over {rounds} rounds",
        pct(first),
        pct(last)
    ));
    table.note("paper (Fig. 1): guesses marked '?', user cut/paste continually improves the model");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The quick F1 curve, bit for bit.
    #[test]
    fn quick_curve_matches_its_committed_bits() {
        let bits: Vec<u64> = feedback_curve(true, 11, 6, 8)
            .iter()
            .map(|acc| acc.to_bits())
            .collect();
        let (eleven_of_twelve, all) = (0x3fed_5555_5555_5555, 0x3ff0_0000_0000_0000);
        let expected = [eleven_of_twelve, eleven_of_twelve, all, all, all, all, all];
        assert_eq!(bits, expected, "{bits:#x?}");
    }
}
