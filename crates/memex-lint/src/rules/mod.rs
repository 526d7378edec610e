//! The three rule families. Each consumes a
//! [`FileModel`](crate::parse::FileModel) plus the repo-relative path and
//! yields [`Finding`]s; the driver in `lib.rs` collects them, and any
//! finding fails the run.

pub mod locks;
pub mod metrics;
pub mod panic_rule;

use crate::config::Rule;

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: Rule,
    /// Repo-relative path.
    pub file: String,
    pub line: usize,
    /// Enclosing function, or `<file>` outside any.
    pub function: String,
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {} (in {})",
            self.file,
            self.line,
            self.rule.name(),
            self.message,
            self.function
        )
    }
}
