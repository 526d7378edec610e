//! Per-user folder/topic spaces (paper Fig. 1).
//!
//! "Each user has a personal folder/topic space… The classification demon
//! then classifies all subsequent history elements, marking its guesses by
//! '?'. The user can correct or reinforce the classifier using cut/paste,
//! thus continually improving Memex's models for the user's topics of
//! interest."
//!
//! The model learns from what the user files (a bookmark, a cut/paste, a
//! confirmed guess) and from nothing else, so the space keeps a term vector
//! only for its confirmed pages; confirming a guess brings its vector along.

use std::sync::Arc;

use memex_learn::nb::{NaiveBayes, NbOptions};
use memex_learn::taxonomy::{Taxonomy, TopicId};
use memex_server::pipeline::SharedTf;
use memex_text::features::FeatureScore;
use memex_text::vocab::TermId;

/// How a page ended up in a folder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageAssignment {
    pub folder: TopicId,
    /// False = a classifier guess, rendered with '?' in the folder tab.
    pub confirmed: bool,
}

/// One user's editable folder tree plus the learned model over it.
#[derive(Default)]
pub struct FolderSpace {
    pub taxonomy: Taxonomy,
    /// (page, assignment), ascending by page.
    assignments: Vec<(u32, PageAssignment)>,
    /// The training set: (confirmed page, its tf), ascending by page (a
    /// rebuild retrains on it, an unfiling unlearns from it). Exactly the
    /// confirmed pages.
    tf_of: Vec<(u32, SharedTf)>,
    /// (folder, its confirmed pages), ascending by folder, for every folder
    /// that has one.
    confirmed_in: Vec<(TopicId, usize)>,
    classifier: Option<NaiveBayes>,
    /// class index -> folder id (leaves of the taxonomy at train time).
    classes: Vec<TopicId>,
    /// Classifier builds from scratch since [`FolderSpace::take_full_rebuilds`].
    full_rebuilds: u64,
}

/// Insert `item` at `at`, growing `table` by exactly that one entry: a
/// space lives as long as its user, so doubling slack would be held as
/// long.
fn insert_exact<T>(table: &mut Vec<T>, at: usize, item: T) {
    table.reserve_exact(1);
    table.insert(at, item);
}

/// Fisher-selected vocabulary size of a trained model.
const FEATURE_K: usize = 2_000;

/// Trained pages from which a model selects features.
const SELECT_FROM_DOCS: usize = 10;

impl FolderSpace {
    pub fn new() -> FolderSpace {
        FolderSpace::default()
    }

    /// Create (or find) a folder by path, e.g. `"/Music/Western Classical"`,
    /// and bring the classifier up to date ([`FolderSpace::rebuild_classifier`]):
    /// retrained when the leaf set moved, re-selected in place otherwise.
    pub fn add_folder(&mut self, path: &str) -> TopicId {
        let parts: Vec<&str> = path.split('/').filter(|p| !p.is_empty()).collect();
        let id = self.taxonomy.add_path(&parts);
        self.rebuild_classifier();
        id
    }

    /// All assignments (page, assignment), guesses included, in ascending
    /// page order. Deterministic order matters: callers feed this into
    /// classifier training (float-sum order) and user-visible exports, and
    /// two archives fed the same writes (a benchmark's oracle and the
    /// served process it checks) must answer bit-identically.
    pub fn assignments(&self) -> impl Iterator<Item = (u32, PageAssignment)> + '_ {
        self.assignments.iter().copied()
    }

    /// Assignment of one page.
    pub fn assignment(&self, page: u32) -> Option<PageAssignment> {
        let at = self.assignments.binary_search_by_key(&page, |&(p, _)| p);
        Some(self.assignments.get(at.ok()?)?.1)
    }

    /// Record `page`'s assignment, replacing any it had.
    fn assign(&mut self, page: u32, a: PageAssignment) {
        match self.assignments.binary_search_by_key(&page, |&(p, _)| p) {
            Ok(at) => self.assignments[at].1 = a,
            Err(at) => insert_exact(&mut self.assignments, at, (page, a)),
        }
    }

    /// A confirmed page and its vector join the training set of `folder`.
    fn keep_confirmed(&mut self, page: u32, folder: TopicId, tf: SharedTf) {
        match self.tf_of.binary_search_by_key(&page, |&(p, _)| p) {
            Ok(at) => self.tf_of[at].1 = tf,
            Err(at) => insert_exact(&mut self.tf_of, at, (page, tf)),
        }
        match self.confirmed_in.binary_search_by_key(&folder, |&(f, _)| f) {
            Ok(at) => self.confirmed_in[at].1 += 1,
            Err(at) => insert_exact(&mut self.confirmed_in, at, (folder, 1)),
        }
    }

    /// User deliberately bookmarks `page` into `folder` (confirmed), or
    /// cuts and pastes it there. Feeds the classifier immediately. The
    /// space keeps `tf` as the training vector: pass the archive's shared
    /// vector to keep no copy.
    pub fn bookmark(&mut self, page: u32, folder: TopicId, tf: impl Into<SharedTf>) {
        assert!(self.taxonomy.is_live(folder), "folder must exist");
        let tf = tf.into();
        // If the page was filed elsewhere, unlearn that first.
        self.unassign(page);
        let folder_was_empty = (self.confirmed_in)
            .binary_search_by_key(&folder, |&(f, _)| f)
            .is_err();
        self.assign(
            page,
            PageAssignment {
                folder,
                confirmed: true,
            },
        );
        self.keep_confirmed(page, folder, Arc::clone(&tf));
        if let (Some(class), Some(nb)) = (self.class_of(folder), &mut self.classifier) {
            nb.add_document(class, &tf);
            if !folder_was_empty {
                return;
            }
        }
        // A folder receiving its first confirmed page brings new vocabulary
        // online: feature selection runs again over it.
        self.rebuild_classifier();
    }

    /// The classification demon's entry point: guess a folder for an
    /// unfiled page. Returns the guess (marked '?') or `None` when the
    /// model cannot classify yet (fewer than two trained folders). The
    /// guess keeps no copy of `tf`: nothing trains on it.
    pub fn classify(&mut self, page: u32, tf: &[(TermId, u32)]) -> Option<TopicId> {
        if let Some(a) = self.assignment(page).filter(|a| a.confirmed) {
            return Some(a.folder);
        }
        let nb = self.classifier.as_ref()?;
        if nb.num_docs() < 2.0 {
            return None;
        }
        let folder = self.classes[nb.predict(tf)];
        self.assign(
            page,
            PageAssignment {
                folder,
                confirmed: false,
            },
        );
        Some(folder)
    }

    /// User reinforces a guess (keeps it where the demon put it). The page,
    /// with its term vector `tf`, becomes a confirmed training example.
    pub fn confirm(&mut self, page: u32, tf: impl Into<SharedTf>) {
        let Ok(at) = self.assignments.binary_search_by_key(&page, |&(p, _)| p) else {
            return;
        };
        let a = &mut self.assignments[at].1;
        if a.confirmed {
            return;
        }
        a.confirmed = true;
        let folder = a.folder;
        let tf = tf.into();
        self.keep_confirmed(page, folder, Arc::clone(&tf));
        if let (Some(class), Some(nb)) = (self.class_of(folder), &mut self.classifier) {
            nb.add_document(class, &tf);
        }
    }

    /// Remove a page from the space entirely (unlearns if confirmed).
    pub fn unassign(&mut self, page: u32) {
        let Ok(at) = self.assignments.binary_search_by_key(&page, |&(p, _)| p) else {
            return;
        };
        let (_, a) = self.assignments.remove(at);
        if !a.confirmed {
            return;
        }
        if let Ok(at) = (self.confirmed_in).binary_search_by_key(&a.folder, |&(f, _)| f) {
            self.confirmed_in[at].1 -= 1;
            if self.confirmed_in[at].1 == 0 {
                self.confirmed_in.remove(at);
            }
        }
        // Only a confirmed page has a vector, and only it trained the model.
        let Ok(at) = self.tf_of.binary_search_by_key(&page, |&(p, _)| p) else {
            return;
        };
        let (_, tf) = self.tf_of.remove(at);
        if let (Some(class), Some(nb)) = (self.class_of(a.folder), &mut self.classifier) {
            nb.remove_document(class, &tf);
        }
    }

    /// Leaf folders the classifier routes to.
    pub fn classes(&self) -> &[TopicId] {
        &self.classes
    }

    /// Number of confirmed examples.
    pub fn confirmed_count(&self) -> usize {
        self.tf_of.len()
    }

    /// Bytes the space holds on the heap: its folder tree, its tables and
    /// its model. A confirmed page's vector is the archive's, shared, so
    /// only its handle counts.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.taxonomy.heap_bytes()
            + self.assignments.capacity() * size_of::<(u32, PageAssignment)>()
            + self.tf_of.capacity() * size_of::<(u32, SharedTf)>()
            + self.confirmed_in.capacity() * size_of::<(TopicId, usize)>()
            + self.classifier.as_ref().map_or(0, NaiveBayes::heap_bytes)
            + self.classes.capacity() * size_of::<TopicId>()
    }

    /// Classifier builds from scratch since the last call: the
    /// [`FolderSpace::rebuild_classifier`] calls that could not re-select in
    /// place.
    pub(crate) fn take_full_rebuilds(&mut self) -> u64 {
        std::mem::take(&mut self.full_rebuilds)
    }

    fn class_of(&self, folder: TopicId) -> Option<usize> {
        self.classes.iter().position(|&f| f == folder)
    }

    /// Bring the classifier to the model a build from scratch over the
    /// current leaf set and confirmed pages would give; every
    /// [`FolderSpace::add_folder`] and every first page into a folder calls
    /// it. When the leaf set is the one the model was built for, no page
    /// was unlearned since and the model has seen at most `FEATURE_K`
    /// terms, Fisher selection keeps every term, so the two models differ
    /// only by the terms first seen since the last selection: the model is
    /// re-selected in place, in O(those terms). Otherwise — a new leaf, a
    /// moved or unfiled page, a larger vocabulary — it is retrained.
    pub fn rebuild_classifier(&mut self) {
        let leaves: Vec<TopicId> = self
            .taxonomy
            .leaves()
            .into_iter()
            .filter(|&l| l != Taxonomy::ROOT)
            .collect();
        if leaves == self.classes {
            // Fewer than two leaves: no model, as a build would leave it.
            if leaves.len() < 2 {
                return;
            }
            if let Some(nb) = &mut self.classifier {
                let k = (nb.num_docs() >= SELECT_FROM_DOCS as f64).then_some(FEATURE_K);
                if nb.reselect_in_place(k) {
                    return;
                }
            }
        }
        self.full_rebuilds += 1;
        if leaves.len() < 2 {
            self.classifier = None;
            self.classes = leaves;
            return;
        }
        let mut nb = NaiveBayes::new(leaves.len(), NbOptions::default());
        let mut trained = 0usize;
        // Only filings into a leaf train: internal folders are structural.
        for (page, tf) in &self.tf_of {
            let folder = self.assignment(*page).map(|a| a.folder);
            if let Some(class) = leaves.iter().position(|&l| Some(l) == folder) {
                nb.add_document(class, tf);
                trained += 1;
            }
        }
        if trained >= SELECT_FROM_DOCS {
            nb.select_features(FeatureScore::Fisher, FEATURE_K);
        }
        self.classes = leaves;
        self.classifier = if trained > 0 { Some(nb) } else { None };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The space keeps a vector for exactly its confirmed pages, and a
    /// count of them for exactly the folders that have one.
    fn vectors_are_the_confirmed_pages(fs: &FolderSpace) -> bool {
        let kept = fs.tf_of.iter().map(|&(page, _)| page);
        let confirmed: Vec<(u32, PageAssignment)> =
            fs.assignments().filter(|(_, a)| a.confirmed).collect();
        let mut counts: Vec<(TopicId, usize)> = Vec::new();
        for (_, a) in &confirmed {
            match counts.binary_search_by_key(&a.folder, |&(f, _)| f) {
                Ok(at) => counts[at].1 += 1,
                Err(at) => counts.insert(at, (a.folder, 1)),
            }
        }
        confirmed.iter().map(|&(page, _)| page).eq(kept) && counts == fs.confirmed_in
    }

    fn space_with_two_folders() -> (FolderSpace, TopicId, TopicId) {
        let mut fs = FolderSpace::new();
        let music = fs.add_folder("/Music/Western Classical");
        let cycling = fs.add_folder("/Cycling");
        // Train both folders.
        for i in 0..5u32 {
            fs.bookmark(i, music, [(1, 3), (2, 1)]);
            fs.bookmark(100 + i, cycling, [(10, 3), (11, 1)]);
        }
        (fs, music, cycling)
    }

    #[test]
    fn folder_paths_create_nested_structure() {
        let mut fs = FolderSpace::new();
        let classical = fs.add_folder("/Music/Western Classical");
        assert_eq!(fs.taxonomy.path(classical), "/Music/Western Classical");
        let again = fs.add_folder("/Music/Western Classical");
        assert_eq!(classical, again);
    }

    #[test]
    fn demon_guesses_are_marked_unconfirmed() {
        let (mut fs, music, _) = space_with_two_folders();
        let guess = fs.classify(500, &[(1, 2)]);
        assert_eq!(guess, Some(music));
        let a = fs.assignment(500).unwrap();
        assert!(!a.confirmed, "demon guesses carry the '?'");
        assert_eq!(fs.confirmed_count(), 10);
        assert!(vectors_are_the_confirmed_pages(&fs), "a guess keeps none");
    }

    #[test]
    fn confirm_reinforces_the_model() {
        let (mut fs, music, _) = space_with_two_folders();
        fs.classify(500, &[(1, 2)]);
        fs.confirm(500, [(1, 2)]);
        assert!(fs.assignment(500).unwrap().confirmed);
        assert_eq!(fs.confirmed_count(), 11);
        assert_eq!(fs.assignment(500).unwrap().folder, music);
        assert!(vectors_are_the_confirmed_pages(&fs));
        fs.unassign(500);
        assert!(vectors_are_the_confirmed_pages(&fs), "unfiling drops it");
    }

    #[test]
    fn correction_moves_and_unlearns() {
        let (mut fs, music, cycling) = space_with_two_folders();
        // A cycling page the model initially mislearns as music.
        let ambiguous: &[(TermId, u32)] = &[(1, 1), (10, 1)];
        fs.bookmark(600, music, ambiguous);
        assert_eq!(fs.assignment(600).unwrap().folder, music);
        fs.bookmark(600, cycling, ambiguous);
        let a = fs.assignment(600).unwrap();
        assert_eq!(a.folder, cycling);
        assert!(a.confirmed);
        assert_eq!(fs.confirmed_count(), 11, "moved, not duplicated");
        assert!(vectors_are_the_confirmed_pages(&fs));
    }

    #[test]
    fn classifier_needs_two_folders() {
        let mut fs = FolderSpace::new();
        let only = fs.add_folder("/Everything");
        fs.bookmark(1, only, [(1, 1)]);
        assert_eq!(fs.classify(2, &[(1, 1)]), None);
    }

    #[test]
    fn restructuring_rebuilds_the_classifier() {
        let (mut fs, _, _) = space_with_two_folders();
        // Adding a third folder changes the class set.
        let travel = fs.add_folder("/Travel");
        fs.bookmark(300, travel, [(20, 3)]);
        assert_eq!(fs.classes().len(), 3);
        assert_eq!(fs.classify(700, &[(20, 2)]), Some(travel));
    }

    #[test]
    fn only_a_new_leaf_or_an_unfiling_retrains() {
        let (mut fs, music, cycling) = space_with_two_folders();
        fs.take_full_rebuilds();
        // Filing into existing folders, as `Memex` does, re-selects in place.
        for page in 200..205u32 {
            let folder = fs.add_folder("/Cycling");
            fs.bookmark(page, folder, [(10, 1), (page, 2)]);
        }
        assert_eq!(fs.take_full_rebuilds(), 0);
        // A move unlearns: the next re-selection retrains.
        fs.bookmark(200, music, [(10, 1), (200, 2)]);
        fs.add_folder("/Cycling");
        assert_eq!(fs.take_full_rebuilds(), 1);
        // So does a new leaf.
        fs.add_folder("/Travel");
        assert_eq!(fs.take_full_rebuilds(), 1);
        assert_eq!(fs.classify(900, &[(10, 2)]), Some(cycling));
        assert!(vectors_are_the_confirmed_pages(&fs));
    }

    #[test]
    fn confirmed_assignment_wins_over_reclassification() {
        let (mut fs, music, cycling) = space_with_two_folders();
        fs.bookmark(800, cycling, [(1, 5)]); // user insists despite text
        assert_eq!(fs.classify(800, &[(1, 5)]), Some(cycling));
        let _ = music;
    }
}
