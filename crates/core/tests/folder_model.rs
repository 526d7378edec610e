//! A folder space re-selects its classifier in place where it can prove
//! that gives the model a retrain would, and nobody can tell: [`Reference`]
//! is `FolderSpace` as it was when every `add_folder` — so every bookmark —
//! retrained from scratch, and random operations run through both must get
//! the same `classify` answer for fresh probe pages after each one, and
//! leave the same assignments behind.
//!
//! The operations are the ones `Memex` files a bookmark with (`add_folder`
//! then `bookmark`) into new, existing and nested folders — a nested one
//! turns its parent from a class into a structural folder — and moves,
//! `unassign`, `classify` + `confirm` and a bare `add_folder`. Half the cases
//! draw pages from a small vocabulary, the other half from one large enough
//! that a space passes `FEATURE_K` = 2 000 distinct terms, where Fisher
//! selection drops terms and every bookmark retrains again.

use std::collections::HashMap;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use memex_core::folders::{FolderSpace, PageAssignment};
use memex_learn::nb::{NaiveBayes, NbOptions};
use memex_learn::taxonomy::{Taxonomy, TopicId};
use memex_text::features::FeatureScore;
use memex_text::vocab::TermId;

/// The reference: every `add_folder` retrains on every confirmed page in a
/// leaf and re-runs Fisher selection; a bookmark into a non-empty leaf adds
/// the page to the model as it stands.
#[derive(Default)]
struct Reference {
    taxonomy: Taxonomy,
    assignments: HashMap<u32, PageAssignment>,
    tf_of: HashMap<u32, Vec<(TermId, u32)>>,
    classifier: Option<NaiveBayes>,
    classes: Vec<TopicId>,
}

impl Reference {
    fn add_folder(&mut self, path: &str) -> TopicId {
        let parts: Vec<&str> = path.split('/').filter(|p| !p.is_empty()).collect();
        let id = self.taxonomy.add_path(&parts);
        self.rebuild_classifier();
        id
    }

    fn assignments(&self) -> Vec<(u32, PageAssignment)> {
        let mut all: Vec<(u32, PageAssignment)> =
            self.assignments.iter().map(|(&p, &a)| (p, a)).collect();
        all.sort_unstable_by_key(|&(p, _)| p);
        all
    }

    fn bookmark(&mut self, page: u32, folder: TopicId, tf: &[(TermId, u32)]) {
        self.unassign(page);
        let folder_was_empty = !self
            .assignments
            .values()
            .any(|a| a.confirmed && a.folder == folder);
        self.assignments.insert(
            page,
            PageAssignment {
                folder,
                confirmed: true,
            },
        );
        self.tf_of.insert(page, tf.to_vec());
        match (self.class_of(folder), &mut self.classifier) {
            (Some(class), Some(nb)) if !folder_was_empty => nb.add_document(class, tf),
            _ => self.rebuild_classifier(),
        }
    }

    fn classify(&mut self, page: u32, tf: &[(TermId, u32)]) -> Option<TopicId> {
        if let Some(a) = self.assignments.get(&page).filter(|a| a.confirmed) {
            return Some(a.folder);
        }
        let nb = self.classifier.as_ref()?;
        if nb.num_docs() < 2.0 {
            return None;
        }
        let folder = self.classes[nb.predict(tf)];
        self.assignments.insert(
            page,
            PageAssignment {
                folder,
                confirmed: false,
            },
        );
        Some(folder)
    }

    fn confirm(&mut self, page: u32, tf: &[(TermId, u32)]) {
        let Some(a) = self.assignments.get_mut(&page) else {
            return;
        };
        if a.confirmed {
            return;
        }
        a.confirmed = true;
        let folder = a.folder;
        self.tf_of.insert(page, tf.to_vec());
        if let (Some(class), Some(nb)) = (self.class_of(folder), &mut self.classifier) {
            nb.add_document(class, tf);
        }
    }

    fn unassign(&mut self, page: u32) {
        let Some(a) = self.assignments.remove(&page) else {
            return;
        };
        if let (Some(tf), Some(class)) = (self.tf_of.remove(&page), self.class_of(a.folder)) {
            if let Some(nb) = &mut self.classifier {
                nb.remove_document(class, &tf);
            }
        }
    }

    fn class_of(&self, folder: TopicId) -> Option<usize> {
        self.classes.iter().position(|&f| f == folder)
    }

    fn rebuild_classifier(&mut self) {
        let leaves: Vec<TopicId> = self
            .taxonomy
            .leaves()
            .into_iter()
            .filter(|&l| l != Taxonomy::ROOT)
            .collect();
        if leaves.len() < 2 {
            self.classifier = None;
            self.classes = leaves;
            return;
        }
        let mut nb = NaiveBayes::new(leaves.len(), NbOptions::default());
        let mut trained = 0usize;
        for (page, tf) in &self.tf_of {
            let folder = self.assignments.get(page).map(|a| a.folder);
            if let Some(class) = leaves.iter().position(|&l| Some(l) == folder) {
                nb.add_document(class, tf);
                trained += 1;
            }
        }
        if trained >= 10 {
            nb.select_features(FeatureScore::Fisher, 2_000);
        }
        self.classes = leaves;
        self.classifier = if trained > 0 { Some(nb) } else { None };
    }
}

const TOPICS: u32 = 4;
const PAGES: u32 = 48;
const PROBES: u32 = 6;
/// Topic `t` files into `FOLDERS[t]` or, nested below it, `FOLDERS[t + 4]`
/// (a quarter of its bookmarks).
const FOLDERS: [&str; 8] = [
    "/music",
    "/cycling",
    "/news",
    "/travel",
    "/music/baroque",
    "/cycling/track",
    "/news/world/europe",
    "/travel/rail",
];

/// One page's term vector (sorted, one entry per term): most terms from
/// its topic's quarter of a `vocab`-term vocabulary, the rest from anywhere.
fn page_tf(rng: &mut StdRng, topic: u32, vocab: u32, len: usize) -> Vec<(TermId, u32)> {
    let band = vocab / TOPICS;
    let mut tf: Vec<(TermId, u32)> = (0..len)
        .map(|_| {
            let term = if rng.gen_bool(0.7) {
                topic * band + rng.gen_range(0u32..band)
            } else {
                rng.gen_range(0u32..vocab)
            };
            (term, rng.gen_range(1u32..4))
        })
        .collect();
    tf.sort_unstable_by_key(|&(t, _)| t);
    tf.dedup_by_key(|&mut (t, _)| t);
    tf
}

/// `PAGES` pages then `PROBES` probes, page `p` on topic `p % TOPICS`.
fn pages(seed: u64, large: bool) -> Vec<Vec<(TermId, u32)>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let (vocab, len) = if large {
        (8_000, 120..200)
    } else {
        (240, 4..24)
    };
    (0..PAGES + PROBES)
        .map(|p| {
            let len = rng.gen_range(len.clone());
            page_tf(&mut rng, p % TOPICS, vocab, len)
        })
        .collect()
}

/// `(kind, page, folder, off_topic)`, read by [`apply`].
type Op = (u8, u32, usize, bool);

fn op() -> impl Strategy<Value = Op> {
    (0u8..16, 0..PAGES, 0..FOLDERS.len(), any::<bool>())
}

/// Run one operation through both spaces.
fn apply(
    space: &mut FolderSpace,
    reference: &mut Reference,
    (kind, page, folder, off_topic): Op,
    tf: &[(TermId, u32)],
) {
    let on_topic = (page % TOPICS) as usize + if folder >= 6 { 4 } else { 0 };
    let path = FOLDERS[if off_topic { folder } else { on_topic }];
    match kind {
        // A bookmark, as `Memex` files one: find or create, then file.
        0..=9 => {
            let (id, ref_id) = (space.add_folder(path), reference.add_folder(path));
            assert_eq!(id, ref_id, "the same folder ids");
            space.bookmark(page, id, tf);
            reference.bookmark(page, ref_id, tf);
        }
        10 | 11 => {
            space.classify(page, tf);
            reference.classify(page, tf);
        }
        12 | 13 => {
            space.confirm(page, tf);
            reference.confirm(page, tf);
        }
        14 => {
            space.unassign(page);
            reference.unassign(page);
        }
        _ => {
            space.add_folder(FOLDERS[folder]);
            reference.add_folder(FOLDERS[folder]);
        }
    }
}

proptest! {
    // Fewer cases in a debug build, where each retrain of a large space is
    // slow; CI runs the release build too.
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 24 } else { 128 }))]

    #[test]
    fn reselecting_in_place_answers_as_retraining_on_every_bookmark(
        seed in any::<u64>(),
        large in any::<bool>(),
        ops in proptest::collection::vec(op(), 1..120),
    ) {
        let pages = pages(seed, large);
        let mut space = FolderSpace::new();
        let mut reference = Reference::default();
        for (i, &op) in ops.iter().enumerate() {
            apply(&mut space, &mut reference, op, &pages[op.1 as usize]);
            for probe in PAGES..PAGES + PROBES {
                let tf = &pages[probe as usize];
                prop_assert_eq!(
                    space.classify(probe, tf),
                    reference.classify(probe, tf),
                    "probe {} after op {} {:?}", probe, i, op
                );
            }
            prop_assert_eq!(space.classes(), &reference.classes[..], "classes after op {}", i);
            prop_assert_eq!(
                space.assignments().collect::<Vec<_>>(),
                reference.assignments(),
                "assignments after op {}", i
            );
        }
    }
}
