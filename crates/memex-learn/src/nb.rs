//! Multinomial naive Bayes with Laplace smoothing, Fisher-index feature
//! selection, incremental updates (for the Fig. 1 feedback loop) and a
//! hierarchical variant that classifies by greedy descent through a topic
//! taxonomy — the TAPER recipe of paper ref \[3\].
//!
//! Two ways to score a document, one formula (`ln_prior`,
//! `ln_likelihood`). [`NaiveBayes`] is the trainable model: it can be
//! asked between any two updates, so it derives every `ln p(t|c)` per call
//! from its term table — what a folder space needs on the ack path, where
//! a bookmark must not pay for a table of logarithms. [`NbScorer`] is the
//! same model frozen: the logarithms are taken once into one row per term,
//! and a document costs a lookup and a multiply-add per class per term. It
//! is for a model that is asked many times and dropped (a user's topic
//! filter classifying every page the community surfed). Such a model need
//! not be trained at all: [`NbScorer::from_counts`] fills the table straight
//! from per-class [`ClassCounts`], and a class every such model shares — the
//! community background — is aggregated once and passed to each.

use std::borrow::Cow;
use std::collections::HashMap;

use memex_text::features::{ClassTermStats, FeatureScore, TermCell};
use memex_text::vocab::TermId;

use crate::taxonomy::{Taxonomy, TopicId};

/// Naive Bayes configuration.
#[derive(Debug, Clone, Copy)]
pub struct NbOptions {
    /// Laplace/Lidstone smoothing constant α.
    pub smoothing: f64,
}

impl Default for NbOptions {
    fn default() -> Self {
        NbOptions { smoothing: 0.25 }
    }
}

/// Which terms a [`NaiveBayes`] scores with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Selection {
    /// No selection: every term seen.
    All,
    /// The last selection kept every term seen then: the terms outside it
    /// are exactly those first seen since.
    KeptAll,
    /// The last selection dropped terms.
    Dropped,
}

/// A flat multinomial naive Bayes classifier over `num_classes` classes.
///
/// Its state is one table, term-major: every term seen, ascending, and per
/// term a row of one [`TermCell`] per class (token count and document
/// frequency, the counts the likelihoods and the feature scores read).
#[derive(Debug, Clone)]
pub struct NaiveBayes {
    opts: NbOptions,
    /// Per class: training documents kept (a removal takes one back).
    class_docs: Vec<f64>,
    /// Per class: training documents ever added — the denominators of the
    /// presence statistics, which a removal leaves as they are.
    seen_docs: Vec<u32>,
    /// Per class: total token count over the active terms.
    token_totals: Vec<f64>,
    /// Every term ever seen, ascending: the rows of the table (the
    /// smoothing vocabulary without a selection).
    terms: Vec<TermId>,
    /// `cells[row * k + class]`, `k` = the number of classes.
    cells: Vec<TermCell>,
    /// Per row: the term is scored (every row without a selection).
    active: Vec<bool>,
    /// Rows active.
    num_active: usize,
    selection: Selection,
    /// A document was removed: the rows and the document frequencies still
    /// hold what it added, so they are no longer those of the documents
    /// kept.
    unlearned: bool,
}

/// `tf` with its terms ascending and each repeat of a term summed into one
/// entry; borrowed when it already is.
fn distinct(tf: &[(TermId, u32)]) -> Cow<'_, [(TermId, u32)]> {
    if tf.windows(2).all(|w| w[0].0 < w[1].0) {
        return Cow::Borrowed(tf);
    }
    let mut doc = tf.to_vec();
    doc.sort_unstable_by_key(|&(t, _)| t);
    doc.dedup_by(|next, kept| {
        let repeat = next.0 == kept.0;
        if repeat {
            kept.1 = kept.1.saturating_add(next.1);
        }
        repeat
    });
    Cow::Owned(doc)
}

/// Where `t` is in the ascending `terms`, searched from `from` on — every
/// term before `from` must be smaller: `Ok(row)`, or `Err` with the row it
/// would be inserted at. Gallops, so a walk of ascending terms costs
/// O(log gap) per term.
fn gallop(terms: &[TermId], from: usize, t: TermId) -> Result<usize, usize> {
    let rest = terms.get(from..).unwrap_or_default();
    let mut bound = 1;
    while bound <= rest.len() && rest[bound - 1] < t {
        bound *= 2;
    }
    let lo = bound / 2;
    let window = &rest[lo..bound.min(rest.len())];
    match window.binary_search(&t) {
        Ok(at) => Ok(from + lo + at),
        Err(at) => Err(from + lo + at),
    }
}

/// A walk of terms against the ascending `terms`, in any order: each
/// lookup gallops on from the last one when its term is larger, and
/// starts over otherwise.
struct RowCursor {
    next: usize,
}

impl RowCursor {
    fn find(&mut self, terms: &[TermId], t: TermId) -> Option<usize> {
        let from = match self.next.checked_sub(1).and_then(|at| terms.get(at)) {
            Some(&before) if before < t => self.next,
            _ => 0,
        };
        match gallop(terms, from, t) {
            Ok(row) => {
                self.next = row + 1;
                Some(row)
            }
            Err(at) => {
                self.next = at;
                None
            }
        }
    }
}

impl NaiveBayes {
    pub fn new(num_classes: usize, opts: NbOptions) -> NaiveBayes {
        assert!(num_classes >= 2, "need at least two classes");
        NaiveBayes {
            opts,
            class_docs: vec![0.0; num_classes],
            seen_docs: vec![0; num_classes],
            token_totals: vec![0.0; num_classes],
            terms: Vec::new(),
            cells: Vec::new(),
            active: Vec::new(),
            num_active: 0,
            selection: Selection::All,
            unlearned: false,
        }
    }

    pub fn num_classes(&self) -> usize {
        self.class_docs.len()
    }

    /// Total training documents seen.
    pub fn num_docs(&self) -> f64 {
        self.class_docs.iter().sum()
    }

    /// The binary-presence statistics feature selection scores: every term
    /// seen and its document frequency per class.
    pub fn term_stats(&self) -> ClassTermStats<'_> {
        ClassTermStats::new(&self.seen_docs, &self.terms, &self.cells)
    }

    /// Bytes the model holds on the heap.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.class_docs.capacity() * size_of::<f64>()
            + self.seen_docs.capacity() * size_of::<u32>()
            + self.token_totals.capacity() * size_of::<f64>()
            + self.terms.capacity() * size_of::<TermId>()
            + self.cells.capacity() * size_of::<TermCell>()
            + self.active.capacity() * size_of::<bool>()
    }

    /// Add one training document (term-frequency pairs, in any order; a
    /// repeated term counts its tokens and the document once). Incremental:
    /// the classifier is usable immediately after, which is exactly how the
    /// folder-tab feedback loop retrains. One pass merges the document's
    /// terms into the table, which grows by exactly the rows it adds (a
    /// model is kept for the life of its folder space, so doubling slack
    /// would be held too).
    pub fn add_document(&mut self, class: usize, tf: &[(TermId, u32)]) {
        assert!(class < self.num_classes());
        self.class_docs[class] += 1.0;
        self.seen_docs[class] += 1;
        let doc = distinct(tf);
        let k = self.num_classes();
        let old = self.terms.len();
        let mut cursor = RowCursor { next: 0 };
        let new = doc
            .iter()
            .filter(|&&(t, _)| cursor.find(&self.terms, t).is_none())
            .count();
        self.terms.reserve_exact(new);
        self.active.reserve_exact(new);
        self.cells.reserve_exact(new * k);
        self.terms.resize(old + new, 0);
        self.active.resize(old + new, false);
        self.cells.resize((old + new) * k, TermCell::default());
        // Merge from the back: `read` rows of the old table are left to
        // place, and the row written next is `write - 1`.
        let fresh_active = self.selection == Selection::All;
        let (mut read, mut write) = (old, old + new);
        for &(t, c) in doc.iter().rev() {
            while read > 0 && self.terms[read - 1] > t {
                read -= 1;
                write -= 1;
                self.move_row(read, write);
            }
            write -= 1;
            if read > 0 && self.terms[read - 1] == t {
                read -= 1;
                self.move_row(read, write);
            } else {
                self.terms[write] = t;
                self.active[write] = fresh_active;
                self.cells[write * k..(write + 1) * k].fill(TermCell::default());
            }
            let cell = &mut self.cells[write * k + class];
            cell.tokens = cell.tokens.saturating_add(c);
            cell.docs += 1;
            if self.active[write] {
                self.token_totals[class] += f64::from(c);
            }
        }
        if fresh_active {
            self.num_active += new;
        }
    }

    /// Row `from` of the table moves to row `to`.
    fn move_row(&mut self, from: usize, to: usize) {
        if from != to {
            let k = self.num_classes();
            self.terms[to] = self.terms[from];
            self.active[to] = self.active[from];
            self.cells.copy_within(from * k..(from + 1) * k, to * k);
        }
    }

    /// Remove a previously added document (folder-tab *correction*: the
    /// user cut a page out of a folder). Counts clamp at zero; the terms
    /// and their document frequencies stay.
    pub fn remove_document(&mut self, class: usize, tf: &[(TermId, u32)]) {
        assert!(class < self.num_classes());
        self.unlearned = true;
        self.class_docs[class] = (self.class_docs[class] - 1.0).max(0.0);
        let k = self.num_classes();
        let mut cursor = RowCursor { next: 0 };
        for &(t, c) in distinct(tf).iter() {
            let Some(row) = cursor.find(&self.terms, t) else {
                continue;
            };
            let cell = &mut self.cells[row * k + class];
            let dec = cell.tokens.min(c);
            cell.tokens -= dec;
            if self.active[row] {
                self.token_totals[class] = (self.token_totals[class] - f64::from(dec)).max(0.0);
            }
        }
    }

    /// Restrict the model to the `k` most discriminative terms (Fisher by
    /// default in TAPER). With `k` at or above the number of terms seen,
    /// every score keeps every term, so none is scored.
    pub fn select_features(&mut self, score: FeatureScore, k: usize) {
        if k >= self.terms.len() {
            self.active.fill(true);
            self.selection = Selection::KeptAll;
        } else {
            let chosen = self.term_stats().select_top_k(score, k);
            self.active.fill(false);
            for t in chosen {
                if let Ok(row) = self.terms.binary_search(&t) {
                    self.active[row] = true;
                }
            }
            self.selection = Selection::Dropped;
        }
        self.num_active = self.active.iter().filter(|&&on| on).count();
        // Recompute token totals over the selected set.
        let classes = self.num_classes();
        for (class, total) in self.token_totals.iter_mut().enumerate() {
            *total = (self.cells.iter().skip(class).step_by(classes))
                .zip(&self.active)
                .filter(|&(_, &on)| on)
                .map(|(cell, _)| f64::from(cell.tokens))
                .sum();
        }
    }

    /// Bring the model, in place, to the one a fresh model fed the same
    /// documents would be after `select_features(_, k)` — or, with `None`,
    /// with no selection. At `k` or fewer terms seen a selection keeps every
    /// term, so only the terms first seen since the last one differ: each
    /// joins the selection and adds its counts to the token totals
    /// (integer-valued sums, exact in any order). Returns false, changing
    /// nothing, when the two models could differ: a document was removed,
    /// more than `k` terms were seen, or the last selection dropped terms.
    pub fn reselect_in_place(&mut self, k: Option<usize>) -> bool {
        if self.unlearned {
            return false;
        }
        let Some(k) = k else {
            return self.selection == Selection::All;
        };
        if self.terms.len() > k {
            return false;
        }
        match self.selection {
            Selection::Dropped => return false,
            // Every row is active, and the token totals count it.
            Selection::All => {}
            Selection::KeptAll => {
                let classes = self.num_classes();
                let rows = self.cells.chunks_exact(classes).zip(&mut self.active);
                for (row, on) in rows.filter(|(_, on)| !**on) {
                    for (total, cell) in self.token_totals.iter_mut().zip(row) {
                        *total += f64::from(cell.tokens);
                    }
                    *on = true;
                }
                self.num_active = self.terms.len();
            }
        }
        self.selection = Selection::KeptAll;
        true
    }

    /// Effective vocabulary size for smoothing.
    fn vocab_size(&self) -> f64 {
        self.num_active.max(1) as f64
    }

    /// Log-posterior (natural log, normalised) over classes for a document.
    pub fn log_posteriors(&self, tf: &[(TermId, u32)]) -> Vec<f64> {
        let n = self.num_docs().max(1.0);
        let k = self.num_classes();
        let v = self.vocab_size();
        let alpha = self.opts.smoothing;
        let mut scores: Vec<f64> = (self.class_docs.iter())
            .map(|&d| ln_prior(d, n, k as f64))
            .collect();
        let mut cursor = RowCursor { next: 0 };
        let unseen = [TermCell::default(); 1];
        for &(t, count) in tf {
            // A term never seen is scored (with no counts) unless a
            // selection is active; a seen one if it is active.
            let cells = match cursor.find(&self.terms, t) {
                Some(row) if self.active[row] => &self.cells[row * k..(row + 1) * k],
                None if self.selection == Selection::All => &unseen[..],
                _ => continue,
            };
            for (c, score) in scores.iter_mut().enumerate() {
                let tc = cells.get(c).map_or(0, |cell| cell.tokens);
                *score +=
                    f64::from(count) * ln_likelihood(f64::from(tc), self.token_totals[c], alpha, v);
            }
        }
        log_normalize(&mut scores);
        scores
    }

    /// Posterior probabilities (exp of [`Self::log_posteriors`]).
    pub fn posteriors(&self, tf: &[(TermId, u32)]) -> Vec<f64> {
        self.log_posteriors(tf).into_iter().map(f64::exp).collect()
    }

    /// Most probable class.
    pub fn predict(&self, tf: &[(TermId, u32)]) -> usize {
        argmax(&self.log_posteriors(tf))
    }

    /// The active rows: `(term, its row)`.
    fn active_rows(&self) -> impl Iterator<Item = (TermId, usize)> + Clone + '_ {
        (self.terms.iter().enumerate())
            .filter(|&(row, _)| self.active[row])
            .map(|(row, &t)| (t, row))
    }
}

/// `ln p(c)` of a class holding `docs` of the `n` training documents, one
/// of `k` classes (add-one smoothed).
fn ln_prior(docs: f64, n: f64, k: f64) -> f64 {
    ((docs + 1.0) / (n + k)).ln()
}

/// `ln p(t|c)` of a term counted `tc` times among the `total` tokens of a
/// class, Lidstone-smoothed by `alpha` over a vocabulary of `v` terms.
fn ln_likelihood(tc: f64, total: f64, alpha: f64, v: f64) -> f64 {
    ((tc + alpha) / (total + alpha * v)).ln()
}

/// What [`NaiveBayes::add_document`] accumulates for one class, aggregated
/// on its own so that many models can share it ([`NbScorer::from_counts`]).
#[derive(Debug, Clone, Default)]
pub struct ClassCounts {
    docs: f64,
    total: f64,
    /// `(term, token count)`, one entry per distinct term.
    counts: Vec<(TermId, f64)>,
}

impl ClassCounts {
    pub fn from_documents<'a>(docs: impl IntoIterator<Item = &'a [(TermId, u32)]>) -> ClassCounts {
        let mut class = ClassCounts::default();
        // term -> 1 + its entry in `counts`.
        let mut slot_of: Vec<u32> = Vec::new();
        for tf in docs {
            class.docs += 1.0;
            for &(t, c) in tf {
                let (t_at, c) = (t as usize, f64::from(c));
                if t_at >= slot_of.len() {
                    slot_of.resize(t_at + 1, 0);
                }
                if slot_of[t_at] == 0 {
                    class.counts.push((t, 0.0));
                    slot_of[t_at] = class.counts.len() as u32;
                }
                class.counts[slot_of[t_at] as usize - 1].1 += c;
                class.total += c;
            }
        }
        class
    }

    /// Documents aggregated.
    pub fn num_docs(&self) -> f64 {
        self.docs
    }
}

/// A trained [`NaiveBayes`], frozen: the same posteriors bit for bit (same
/// operations in the same order), with every `ln p(t|c)` taken once at
/// build time instead of once per document asked.
///
/// Term ids are expected dense (a `Vocabulary`'s): the term index is as long
/// as the largest id the model has seen.
#[derive(Debug, Clone)]
pub struct NbScorer {
    priors: Vec<f64>,
    /// Per class: `ln p(t|c)` of a term no class has counted.
    unseen: Vec<f64>,
    /// Feature selection was active: a term without a row is not a feature
    /// and is skipped. Otherwise it is a term never seen and scores `unseen`.
    skip_rowless: bool,
    /// term -> 1 + its row in `rows`; 0, or past the end: no row.
    row_of: Vec<u32>,
    /// One row per model term, one `ln p(t|c)` per class in each.
    rows: Vec<f64>,
}

impl NbScorer {
    /// Freeze `nb` as it stands.
    pub fn new(nb: &NaiveBayes) -> NbScorer {
        // One row per model term: the selected features, or every term seen.
        let k = nb.num_classes();
        NbScorer::build(
            nb.opts,
            &nb.class_docs,
            &nb.token_totals,
            nb.active_rows().map(|(t, _)| t),
            nb.selection != Selection::All,
            |c| {
                nb.active_rows()
                    .map(move |(t, row)| (t, f64::from(nb.cells[row * k + c].tokens)))
            },
        )
    }

    /// The [`NaiveBayes`] with no feature selection whose class `c` was fed
    /// the documents `classes[c]` aggregates, frozen — without training it:
    /// its counts are integer-valued sums, the same in any order.
    pub fn from_counts(classes: &[&ClassCounts], opts: NbOptions) -> NbScorer {
        let class_docs: Vec<f64> = classes.iter().map(|c| c.docs).collect();
        let totals: Vec<f64> = classes.iter().map(|c| c.total).collect();
        NbScorer::build(
            opts,
            &class_docs,
            &totals,
            classes
                .iter()
                .flat_map(|c| c.counts.iter().map(|&(t, _)| t)),
            false,
            |c| classes[c].counts.iter().copied(),
        )
    }

    /// The table of a model with `class_docs` documents and `totals` tokens
    /// per class, a row for each of `model_terms` (repeats are fine) and
    /// `counts(c)` the `(term, token count)` of class `c`.
    fn build<I: Iterator<Item = (TermId, f64)>>(
        opts: NbOptions,
        class_docs: &[f64],
        totals: &[f64],
        model_terms: impl Iterator<Item = TermId> + Clone,
        skip_rowless: bool,
        counts: impl Fn(usize) -> I,
    ) -> NbScorer {
        let k = class_docs.len();
        let index_len = model_terms.clone().max().map_or(0, |t| t as usize + 1);
        let mut row_of = vec![0u32; index_len];
        let mut num_rows = 0u32;
        for t in model_terms {
            if row_of[t as usize] == 0 {
                num_rows += 1;
                row_of[t as usize] = num_rows;
            }
        }
        let n = class_docs.iter().sum::<f64>().max(1.0);
        let v = num_rows.max(1) as f64;
        let alpha = opts.smoothing;
        let unseen: Vec<f64> = totals
            .iter()
            .map(|&total| ln_likelihood(0.0, total, alpha, v))
            .collect();
        let mut rows = Vec::with_capacity(num_rows as usize * k);
        for _ in 0..num_rows {
            rows.extend_from_slice(&unseen);
        }
        for (c, &total) in totals.iter().enumerate() {
            for (t, tc) in counts(c) {
                if let Some(&row) = row_of.get(t as usize).filter(|&&row| row > 0) {
                    rows[(row as usize - 1) * k + c] = ln_likelihood(tc, total, alpha, v);
                }
            }
        }
        NbScorer {
            priors: class_docs
                .iter()
                .map(|&d| ln_prior(d, n, k as f64))
                .collect(),
            unseen,
            skip_rowless,
            row_of,
            rows,
        }
    }

    /// [`NaiveBayes::log_posteriors`] of the frozen model.
    pub fn log_posteriors(&self, tf: &[(TermId, u32)]) -> Vec<f64> {
        let k = self.priors.len();
        let mut scores = self.priors.clone();
        for &(t, count) in tf {
            let row = match self.row_of.get(t as usize) {
                Some(&row) if row > 0 => {
                    let at = (row as usize - 1) * k;
                    &self.rows[at..at + k]
                }
                _ if self.skip_rowless => continue,
                _ => &self.unseen[..],
            };
            let count = f64::from(count);
            for (score, &ln_p) in scores.iter_mut().zip(row) {
                *score += count * ln_p;
            }
        }
        log_normalize(&mut scores);
        scores
    }

    /// [`NaiveBayes::predict`] of the frozen model.
    pub fn predict(&self, tf: &[(TermId, u32)]) -> usize {
        argmax(&self.log_posteriors(tf))
    }
}

/// Normalise log scores in place so `exp` sums to 1 (log-sum-exp).
pub fn log_normalize(scores: &mut [f64]) {
    let max = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if !max.is_finite() {
        let uniform = -(scores.len().max(1) as f64).ln();
        scores.iter_mut().for_each(|s| *s = uniform);
        return;
    }
    let lse = max + scores.iter().map(|&s| (s - max).exp()).sum::<f64>().ln();
    for s in scores.iter_mut() {
        *s -= lse;
    }
}

/// Index of the largest score (the last of equal maxima; 0 when empty).
pub fn argmax(scores: &[f64]) -> usize {
    scores
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

// ---------------------------------------------------------------------------
// Hierarchical variant
// ---------------------------------------------------------------------------

/// TAPER-style hierarchical classifier: one small naive Bayes per internal
/// taxonomy node (over its children), classification by greedy descent.
pub struct HierarchicalNB {
    taxonomy: Taxonomy,
    /// internal node -> (child list, classifier over those children).
    routers: HashMap<TopicId, (Vec<TopicId>, NaiveBayes)>,
    opts: NbOptions,
    /// Features per router (Fisher-selected when `feature_k` is set).
    feature_k: Option<usize>,
}

impl HierarchicalNB {
    pub fn new(taxonomy: Taxonomy, opts: NbOptions, feature_k: Option<usize>) -> HierarchicalNB {
        HierarchicalNB {
            taxonomy,
            routers: HashMap::new(),
            opts,
            feature_k,
        }
    }

    pub fn taxonomy(&self) -> &Taxonomy {
        &self.taxonomy
    }

    /// Train from `(leaf topic, tf pairs)` documents. A document labelled
    /// with a leaf contributes to every router on the root→leaf path.
    pub fn train<'a>(
        &mut self,
        docs: impl IntoIterator<Item = (TopicId, &'a [(TermId, u32)])> + Clone,
    ) {
        self.routers.clear();
        // Build router skeletons.
        for node in self.taxonomy.all_topics() {
            let children = self.taxonomy.children(node);
            if children.len() >= 2 {
                self.routers.insert(
                    node,
                    (children.clone(), NaiveBayes::new(children.len(), self.opts)),
                );
            }
        }
        for (leaf, tf) in docs {
            // Walk up from the leaf, feeding each router the child index on
            // the path.
            let mut child = leaf;
            let mut parent = self.taxonomy.parent(leaf);
            while let Some(p) = parent {
                if let Some((children, nb)) = self.routers.get_mut(&p) {
                    if let Some(idx) = children.iter().position(|&c| c == child) {
                        nb.add_document(idx, tf);
                    }
                }
                child = p;
                parent = self.taxonomy.parent(p);
            }
        }
        if let Some(k) = self.feature_k {
            for (_, nb) in self.routers.values_mut() {
                if nb.num_docs() > 0.0 {
                    nb.select_features(FeatureScore::Fisher, k);
                }
            }
        }
    }

    /// Greedy root-to-leaf descent; returns the chosen leaf (or the deepest
    /// node with a trained router).
    pub fn classify(&self, tf: &[(TermId, u32)]) -> TopicId {
        let mut node = Taxonomy::ROOT;
        loop {
            match self.routers.get(&node) {
                Some((children, nb)) if nb.num_docs() > 0.0 => {
                    node = children[nb.predict(tf)];
                }
                _ => {
                    // Single-child chains descend unconditionally.
                    let kids = self.taxonomy.children(node);
                    if kids.len() == 1 {
                        node = kids[0];
                    } else {
                        return node;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny two-topic corpus: music docs use terms {1,2,3}, cycling docs
    /// {10,11,12}, with term 50 common to both.
    fn toy_docs() -> Vec<(usize, Vec<(TermId, u32)>)> {
        let mut docs = Vec::new();
        for i in 0..20u32 {
            if i % 2 == 0 {
                docs.push((0, vec![(1, 2), (2, 1), (3, 1), (50, 1)]));
            } else {
                docs.push((1, vec![(10, 2), (11, 1), (12, 1), (50, 1)]));
            }
        }
        docs
    }

    #[test]
    fn learns_separable_classes() {
        let mut nb = NaiveBayes::new(2, NbOptions::default());
        for (c, tf) in toy_docs() {
            nb.add_document(c, &tf);
        }
        assert_eq!(nb.predict(&[(1, 1), (2, 1)]), 0);
        assert_eq!(nb.predict(&[(10, 1), (12, 3)]), 1);
        let post = nb.posteriors(&[(1, 1), (2, 1)]);
        assert!((post.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(post[0] > 0.9);
    }

    #[test]
    fn a_repeated_term_counts_its_document_once() {
        let unsorted = [(7u32, 1u32), (3, 2), (7, 2), (9, 1)];
        let merged = [(3u32, 2u32), (7, 3), (9, 1)];
        let (mut nb, mut once) = (
            NaiveBayes::new(2, NbOptions::default()),
            NaiveBayes::new(2, NbOptions::default()),
        );
        for model in [&mut nb, &mut once] {
            model.add_document(1, &[(7, 1), (8, 1)]);
        }
        nb.add_document(0, &unsorted);
        once.add_document(0, &merged);
        let bits = |post: Vec<f64>| post.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        let query = [(7u32, 2u32), (3, 1), (7, 1), (11, 1)];
        for how in [
            FeatureScore::Fisher,
            FeatureScore::ChiSquare,
            FeatureScore::MutualInfo,
        ] {
            let score = |m: &NaiveBayes| m.term_stats().score(7, how).to_bits();
            assert_eq!(score(&nb), score(&once), "{how:?}");
        }
        assert_eq!(nb.term_stats().terms().collect::<Vec<_>>(), [3, 7, 8, 9]);
        assert_eq!(
            bits(nb.log_posteriors(&query)),
            bits(once.log_posteriors(&query))
        );
        nb.remove_document(0, &[(9, 1), (7, 2), (3, 2), (7, 1)]);
        once.remove_document(0, &merged);
        assert_eq!(
            bits(nb.log_posteriors(&query)),
            bits(once.log_posteriors(&query))
        );
        nb.select_features(FeatureScore::Fisher, 2);
        once.select_features(FeatureScore::Fisher, 2);
        assert_eq!(
            bits(nb.log_posteriors(&query)),
            bits(once.log_posteriors(&query))
        );
    }

    #[test]
    fn empty_document_falls_back_to_prior() {
        let mut nb = NaiveBayes::new(2, NbOptions::default());
        for _ in 0..9 {
            nb.add_document(0, &[(1, 1)]);
        }
        nb.add_document(1, &[(2, 1)]);
        assert_eq!(nb.predict(&[]), 0, "prior favours the bigger class");
    }

    #[test]
    fn incremental_feedback_corrects_the_model() {
        let mut nb = NaiveBayes::new(2, NbOptions::default());
        // Mislabelled doc initially.
        let tf = vec![(7u32, 3u32)];
        nb.add_document(0, &tf);
        nb.add_document(1, &[(8, 3)]);
        assert_eq!(nb.predict(&tf), 0);
        // User cuts it from folder 0 and pastes into folder 1.
        nb.remove_document(0, &tf);
        nb.add_document(1, &tf);
        assert_eq!(nb.predict(&tf), 1);
    }

    #[test]
    fn feature_selection_drops_noise_terms() {
        let mut nb = NaiveBayes::new(2, NbOptions::default());
        for (c, tf) in toy_docs() {
            nb.add_document(c, &tf);
        }
        nb.select_features(FeatureScore::Fisher, 6);
        // Term 50 is non-discriminative; a doc of only term 50 should give
        // roughly the prior (equal classes here -> near 0.5).
        let post = nb.posteriors(&[(50, 5)]);
        assert!(
            (post[0] - 0.5).abs() < 0.05,
            "noise term should not swing the posterior"
        );
        // Discriminative terms still work.
        assert_eq!(nb.predict(&[(1, 1)]), 0);
    }

    #[test]
    fn posteriors_are_proper_distributions() {
        let mut nb = NaiveBayes::new(3, NbOptions::default());
        nb.add_document(0, &[(1, 1)]);
        nb.add_document(1, &[(2, 1)]);
        nb.add_document(2, &[(3, 1)]);
        for tf in [vec![], vec![(1u32, 1u32)], vec![(9, 4)]] {
            let p = nb.posteriors(&tf);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
    }

    #[test]
    fn hierarchical_descends_to_the_right_leaf() {
        let mut tax = Taxonomy::new();
        let music = tax.add_child(Taxonomy::ROOT, "Music");
        let classical = tax.add_child(music, "Classical");
        let rock = tax.add_child(music, "Rock");
        let sports = tax.add_child(Taxonomy::ROOT, "Sports");
        let cycling = tax.add_child(sports, "Cycling");
        let cricket = tax.add_child(sports, "Cricket");
        // Term layout: shared music term 100, shared sports term 200,
        // leaf-specific 1..4.
        let docs: Vec<(TopicId, Vec<(TermId, u32)>)> = (0..40)
            .map(|i| match i % 4 {
                0 => (classical, vec![(100, 2), (1, 3)]),
                1 => (rock, vec![(100, 2), (2, 3)]),
                2 => (cycling, vec![(200, 2), (3, 3)]),
                _ => (cricket, vec![(200, 2), (4, 3)]),
            })
            .collect();
        let mut h = HierarchicalNB::new(tax, NbOptions::default(), None);
        h.train(docs.iter().map(|(t, v)| (*t, v.as_slice())));
        assert_eq!(h.classify(&[(100, 1), (1, 2)]), classical);
        assert_eq!(h.classify(&[(100, 1), (2, 2)]), rock);
        assert_eq!(h.classify(&[(200, 1), (3, 2)]), cycling);
        assert_eq!(h.classify(&[(200, 1), (4, 2)]), cricket);
        // A doc with only the shared music term still lands under Music.
        let leaf = h.classify(&[(100, 3)]);
        assert!(h.taxonomy().is_ancestor_or_self(music, leaf));
    }
}
