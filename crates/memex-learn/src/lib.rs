//! # memex-learn — learning substrate
//!
//! Implements the paper's §4 classification stack:
//!
//! * [`taxonomy`] — the tree of topics/folders that users edit and the
//!   server mines ("each user has a personal folder/topic space", Fig. 1);
//! * [`nb`] — multinomial naive Bayes with Laplace smoothing and
//!   Fisher-index feature selection, flat or hierarchical (greedy descent
//!   down the taxonomy), after the TAPER system of paper ref \[3\];
//! * [`enhanced`] — the paper's *new* classifier "that combines features
//!   from text, hyperlink and folder placement to offer significantly
//!   boosted accuracy, increasing from a mere 40% accuracy for text-only
//!   learners to about 80%": an iterative relaxation-labelling scheme over
//!   the link graph with folder co-placement evidence.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

pub mod enhanced;
pub mod nb;
pub mod taxonomy;

pub use enhanced::{EnhancedClassifier, EnhancedOptions};
pub use nb::{NaiveBayes, NbOptions};
pub use taxonomy::{Taxonomy, TopicId};
